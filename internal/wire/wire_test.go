package wire

import (
	"strings"
	"testing"
)

func TestGossipRequestValidate(t *testing.T) {
	big := make([]string, MaxInventoryBenchmarks+1)
	for i := range big {
		big[i] = "b"
	}
	bigDepths := make(map[string]int, MaxInventoryBenchmarks+1)
	for i := 0; i <= MaxInventoryBenchmarks; i++ {
		bigDepths[strings.Repeat("d", i+1)] = 1
	}
	alive := func(e GossipEntry) GossipEntry {
		if e.Addr == "" {
			e.Addr = "127.0.0.1:8091"
		}
		e.State = GossipAlive
		return e
	}
	cases := []struct {
		name string
		req  GossipRequest
		ok   bool
	}{
		{"empty digest", GossipRequest{From: "127.0.0.1:8091"}, true},
		{"minimal entry", GossipRequest{From: "p:1", Entries: []GossipEntry{alive(GossipEntry{})}}, true},
		{"with inventory", GossipRequest{From: "p:1", Entries: []GossipEntry{alive(GossipEntry{
			Capacity: 8, Benchmarks: []string{"gcc", "mcf"}, QueueDepths: map[string]int{"gcc": 2},
		})}}, true},
		{"ipv6 addr", GossipRequest{From: "[::1]:8091"}, true},
		{"suspect and dead states", GossipRequest{From: "p:1", Entries: []GossipEntry{
			{Addr: "a:1", State: GossipSuspect}, {Addr: "b:1", State: GossipDead},
		}}, true},

		{"no from", GossipRequest{}, false},
		{"portless from", GossipRequest{From: "peer-3"}, false},
		{"hostless from", GossipRequest{From: ":9401"}, false},
		{"url from", GossipRequest{From: "http://peer-3:8091"}, false},
		{"no entry addr", GossipRequest{From: "p:1", Entries: []GossipEntry{{State: GossipAlive}}}, false},
		{"portless entry", GossipRequest{From: "p:1", Entries: []GossipEntry{alive(GossipEntry{Addr: "peer-3"})}}, false},
		{"hostless entry", GossipRequest{From: "p:1", Entries: []GossipEntry{alive(GossipEntry{Addr: ":9401"})}}, false},
		{"portless colon entry", GossipRequest{From: "p:1", Entries: []GossipEntry{alive(GossipEntry{Addr: "peer-3:"})}}, false},
		{"unknown state", GossipRequest{From: "p:1", Entries: []GossipEntry{{Addr: "a:1", State: "zombie"}}}, false},
		{"negative capacity", GossipRequest{From: "p:1", Entries: []GossipEntry{alive(GossipEntry{Capacity: -1})}}, false},
		{"oversized inventory", GossipRequest{From: "p:1", Entries: []GossipEntry{alive(GossipEntry{Benchmarks: big})}}, false},
		{"empty benchmark name", GossipRequest{From: "p:1", Entries: []GossipEntry{alive(GossipEntry{Benchmarks: []string{""}})}}, false},
		{"oversized benchmark name", GossipRequest{From: "p:1", Entries: []GossipEntry{alive(GossipEntry{Benchmarks: []string{strings.Repeat("x", 129)}})}}, false},
		{"oversized queue depths", GossipRequest{From: "p:1", Entries: []GossipEntry{alive(GossipEntry{QueueDepths: bigDepths})}}, false},
		{"empty queue-depth name", GossipRequest{From: "p:1", Entries: []GossipEntry{alive(GossipEntry{QueueDepths: map[string]int{"": 1}})}}, false},
		{"oversized queue-depth name", GossipRequest{From: "p:1", Entries: []GossipEntry{alive(GossipEntry{QueueDepths: map[string]int{strings.Repeat("x", 129): 1}})}}, false},
		{"negative queue depth", GossipRequest{From: "p:1", Entries: []GossipEntry{alive(GossipEntry{QueueDepths: map[string]int{"gcc": -1}})}}, false},
		{"oversized digest", GossipRequest{From: "p:1", Entries: make([]GossipEntry, MaxGossipEntries+1)}, false},
	}
	for _, tc := range cases {
		err := tc.req.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: invalid request accepted", tc.name)
		}
	}
	// A 128-byte name is the longest accepted.
	edge := GossipRequest{From: "p:1", Entries: []GossipEntry{alive(GossipEntry{Benchmarks: []string{strings.Repeat("x", 128)}})}}
	if err := edge.Validate(); err != nil {
		t.Errorf("128-byte benchmark name rejected: %v", err)
	}
}
