package router

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// TestCloseStopsBackgroundLogging: the only replica flips between ready
// and not ready on every probe, so the health checker logs an election
// every round. Once Close returns no further line may arrive: a checker
// that outlives its router logs into a finished test, which panics the
// whole test binary.
func TestCloseStopsBackgroundLogging(t *testing.T) {
	var probes atomic.Int64
	flaky := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if probes.Add(1)%2 == 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		w.Write([]byte("{}"))
	})
	var lines, late atomic.Int64
	var closed atomic.Bool
	logf := func(string, ...any) {
		lines.Add(1)
		if closed.Load() {
			late.Add(1)
		}
	}
	rt, err := New([]string{"http://replica0"},
		WithClient(&http.Client{Transport: Inproc{"replica0": flaky}}),
		WithSchema(testGraph().Schema()), WithHealthInterval(time.Millisecond), WithLogf(logf))
	if err != nil {
		t.Fatal(err)
	}
	rt.Start(context.Background()) // only Close can stop it
	for deadline := time.Now().Add(10 * time.Second); lines.Load() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the health checker logged %d elections in 10s, want 4", lines.Load())
		}
	}
	rt.Close()
	closed.Store(true)
	time.Sleep(50 * time.Millisecond) // fifty health intervals
	if n := late.Load(); n != 0 {
		t.Fatalf("%d lines logged after Close returned", n)
	}
	rt.Close() // a second Close does nothing
	(&Router{}).Close()
}
