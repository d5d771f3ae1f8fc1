package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// servedArgs is the daemon's default model configuration, spelled out so
// a change to dsed's flag defaults cannot silently change what is
// measured.
var servedArgs = []string{
	"-train", "40", "-instrs", "65536", "-samples", "64", "-k", "16",
	"-metrics", "CPI,Power,AVF", "-quiet",
}

// daemon is one dsed process started by the harness.
type daemon struct {
	addr string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon launches bin at addr with extra flags, logging to logPath.
// Cancelling ctx asks the daemon to drain, as stop does.
func startDaemon(ctx context.Context, bin, addr, logPath string, extra ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr}, servedArgs...)
	args = append(args, extra...)
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second
	cmd.Stdout, cmd.Stderr = logf, logf
	// A daemon must not outlive the harness, even one killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{addr: addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// health is the part of GET /v1/healthz the harness reads.
type health struct {
	Models    []json.RawMessage `json:"models"`
	Trainings int               `json:"trainings"`
}

// getHealth fetches /v1/healthz once.
func getHealth(ctx context.Context, hc *http.Client, addr string) (*health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/v1/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	var h health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, err
	}
	return &h, nil
}

// waitReady polls /v1/healthz until the daemon answers with at least
// models loaded models, failing if the process exits or ctx expires.
func (d *daemon) waitReady(ctx context.Context, hc *http.Client, models int) error {
	for {
		if h, err := getHealth(ctx, hc, d.addr); err == nil && len(h.Models) >= models {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("dsed at %s exited during start-up (log: %s)", d.addr, d.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("dsed at %s not ready: %w", d.addr, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// hwmMB is the process's peak resident set (VmHWM) in MiB.
func (d *daemon) hwmMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found")
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not
// exited within five seconds, and waits for it.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}
