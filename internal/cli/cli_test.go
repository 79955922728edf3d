package cli

import (
	"bytes"
	"context"
	"syscall"
	"testing"
	"time"
)

func TestSignalContextCancelsOnSIGTERM(t *testing.T) {
	ctx, stop := SignalContext(context.Background())
	defer stop()
	if err := ctx.Err(); err != nil {
		t.Fatalf("context canceled before any signal: %v", err)
	}
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context not canceled by SIGTERM")
	}
}

func TestSignalContextStopRestores(t *testing.T) {
	ctx, stop := SignalContext(context.Background())
	stop()
	if ctx.Err() == nil {
		t.Fatal("stop did not cancel the context")
	}
}

func TestResolveScenarioRequestsOverride(t *testing.T) {
	scn, err := LoadScenario("flash-crowd", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResolveScenario(scn, "test", ScenarioOptions{Requests: -5}, nil); err == nil {
		t.Fatal("negative request volume accepted")
	}
	res, err := ResolveScenario(scn, "test", ScenarioOptions{Requests: 500}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Spec.Workload.Requests; got != 500 {
		t.Fatalf("override compiled %d requests, want 500", got)
	}
}

func TestProgress(t *testing.T) {
	if p := Progress(false, nil); p != nil {
		t.Fatal("quiet mode should return a nil progress (no per-event cost)")
	}
	var buf bytes.Buffer
	p := Progress(true, &buf)
	if p == nil {
		t.Fatal("verbose mode returned nil")
	}
	p("solved %s at %g", "general", 0.99)
	if got, want := buf.String(), "solved general at 0.99\n"; got != want {
		t.Fatalf("progress wrote %q, want %q", got, want)
	}
}
