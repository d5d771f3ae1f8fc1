package main

import (
	"context"
	"testing"
	"time"
)

// TestRunBothLegsExact races hedging off against hedging on over a
// small churny fleet: both legs must merge the exact single-process
// frontier, and the hedged leg over a straggler-heavy fleet must
// actually speculate, with every issued hedge settled as won or wasted.
func TestRunBothLegsExact(t *testing.T) {
	results, err := run(context.Background(), config{
		designs:   600,
		shardSize: 64,
		fast:      2,
		slow:      1,
		fastDelay: 10 * time.Microsecond,
		// A slow shard (64 designs) takes 128ms, far past the 25ms
		// hedge floor, so scheduling noise cannot finish it first.
		slowDelay: 2 * time.Millisecond,
		hedge:     2,
		churn:     true,
		churnAt:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].hedged || !results[1].hedged {
		t.Fatalf("got %d legs, want 2 (hedge off, then on)", len(results))
	}
	for _, r := range results {
		if !r.exact {
			t.Errorf("hedge=%v: frontier diverged from single-process answer", r.hedged)
		}
		if r.makespan <= 0 {
			t.Errorf("hedge=%v: non-positive makespan", r.hedged)
		}
	}
	off, on := results[0], results[1]
	if off.issued+off.won+off.wasted != 0 {
		t.Error("hedges booked on the unhedged leg")
	}
	if on.issued == 0 {
		t.Error("the hedged leg issued no hedge against a 200x straggler")
	}
	if on.issued != on.won+on.wasted {
		t.Errorf("hedge accounting drifted: %d != %d+%d", on.issued, on.won, on.wasted)
	}
}
