package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"hetesim/internal/core"
	"hetesim/internal/datagen"
	"hetesim/internal/hin"
	"hetesim/internal/router"
	"hetesim/internal/server"
)

// followInterval is the follower's WAL-tail poll cadence on write-mix.
const followInterval = 100 * time.Millisecond

type replica struct {
	srv *server.Server
	ts  *httptest.Server
}

// fleet is a router in front of two replicas, each behind its own loopback
// TCP listener, all in this process.
type fleet struct {
	g     *hin.Graph
	w     workload
	reps  []*replica
	front *httptest.Server

	cancel       context.CancelFunc
	followerDone chan struct{} // closed when RunFollower returns; nil without one

	// Set-up phases, seconds.
	datagenS, precomputeS, snapSaveS, snapLoadS float64
	snapBytes                                   int64
}

// basePort is where the fleet listens: the router on basePort, replica i
// on basePort+1+i. The ports are fixed because the router places a path
// on a replica by hashing the path with the replica's URL: with ports
// picked by the kernel, which replica's cache a path churns would change
// from run to run, and cold-adhoc's numbers with it.
const basePort = 18600

// listen serves h on loopback port basePort+slot, or, when that is taken,
// on the same slot of one of the next few port blocks.
func listen(slot int, h http.Handler) (*httptest.Server, error) {
	var err error
	for block := 0; block < 8; block++ {
		var l net.Listener
		if l, err = net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", basePort+16*block+slot)); err == nil {
			ts := httptest.NewUnstartedServer(h)
			ts.Listener.Close()
			ts.Listener = l
			ts.Start()
			return ts, nil
		}
	}
	return nil, err
}

// acmConfig is the graph every run serves: the paper-scale ACM network
// under the generator's own default seed. --seed drives the op schedule,
// not the graph: a graph per seed doubled the run-to-run spread of the
// cold-adhoc metrics (README.md has the numbers) without measuring
// anything more about the program.
func acmConfig(short bool) datagen.ACMConfig {
	if short {
		return datagen.SmallACMConfig()
	}
	return datagen.DefaultACMConfig()
}

func discardf(string, ...any) {}

func (w workload) engineOptions() []core.Option {
	if w.CacheLimit > 0 {
		return []core.Option{core.WithCacheLimit(w.CacheLimit)}
	}
	return nil
}

// bootFleet generates the graph and brings the workload's fleet up to the
// point where the router reports every replica ready (and, with a WAL,
// the follower is following the primary). dir holds the fleet's files.
func bootFleet(w workload, short bool, dir string) (*fleet, error) {
	f := &fleet{w: w}
	t := time.Now()
	ds, err := datagen.ACM(acmConfig(short))
	if err != nil {
		return nil, err
	}
	f.g = ds.Graph
	f.datagenS = time.Since(t).Seconds()

	snapPath := filepath.Join(dir, "chains.snap")
	for i := 0; i < 2; i++ {
		opts := []server.Option{server.WithLogf(discardf), server.WithEngineOptions(w.engineOptions()...)}
		if len(w.Precompute) > 0 {
			opts = append(opts, server.WithSnapshotPath(snapPath))
		}
		if w.WAL {
			opts = append(opts, server.WithWALPath(filepath.Join(dir, fmt.Sprintf("edges%d.wal", i))))
		}
		srv := server.New(f.g, opts...)
		switch {
		case len(w.Precompute) == 0:
		case i == 0:
			t = time.Now()
			for _, spec := range w.Precompute {
				if err := srv.Precompute(spec); err != nil {
					return nil, fmt.Errorf("precompute %s: %w", spec, err)
				}
			}
			f.precomputeS = time.Since(t).Seconds()
			t = time.Now()
			if err := srv.SaveSnapshot(); err != nil {
				return nil, fmt.Errorf("snapshot save: %w", err)
			}
			f.snapSaveS = time.Since(t).Seconds()
			f.snapBytes = fileSize(snapPath)
		default:
			t = time.Now()
			if warmed, err := srv.WarmStart(); err != nil || !warmed {
				return nil, fmt.Errorf("replica %d warm start: warmed=%v err=%v", i, warmed, err)
			}
			f.snapLoadS = time.Since(t).Seconds()
		}
		if _, err := srv.OpenWAL(); err != nil {
			return nil, fmt.Errorf("open wal: %w", err)
		}
		srv.MarkReady()
		ts, err := listen(1+i, srv.Handler())
		if err != nil {
			return nil, err
		}
		f.reps = append(f.reps, &replica{srv: srv, ts: ts})
	}

	ropts := []router.Option{router.WithSchema(f.g.Schema()), router.WithHealthInterval(followInterval),
		router.WithRelevanceLimits(4, relevancePaths)}
	if w.WAL {
		ropts = append(ropts, router.WithPrimary(f.reps[0].ts.URL))
	}
	rt, err := router.New([]string{f.reps[0].ts.URL, f.reps[1].ts.URL}, ropts...)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	rt.Start(ctx)
	if f.front, err = listen(0, rt.Handler()); err != nil {
		return nil, err
	}
	if w.WAL {
		f.followerDone = make(chan struct{})
		go func() {
			defer close(f.followerDone)
			f.reps[1].srv.RunFollower(ctx, server.FollowerOptions{
				Target: f.front.URL, Self: f.reps[1].ts.URL, Interval: followInterval, Logf: discardf,
			})
		}()
	}
	if err := f.waitReady(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// waitReady polls the router's public endpoints until both replicas are
// healthy and, on a replicated fleet, the follower has found its primary.
func (f *fleet) waitReady() error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		var rb struct {
			Healthy int `json:"healthy"`
		}
		err := getJSON(f.front.URL+"/readyz", &rb)
		if err == nil && rb.Healthy == len(f.reps) &&
			(!f.w.WAL || f.reps[1].srv.FollowingPrimary() == f.reps[0].ts.URL) {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("fleet not ready within 20s")
}

// close stops the follower and the router's prober, then the listeners,
// and returns once they are down.
func (f *fleet) close() {
	f.cancel()
	if f.followerDone != nil {
		<-f.followerDone
	}
	f.front.Close()
	for _, r := range f.reps {
		r.ts.Close()
		_ = r.srv.CloseWAL() // the WAL's directory is removed right after
	}
	// The router relays through http.DefaultTransport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// replicaIndex maps a replica base URL (as the router reports it in
// X-Hetesim-Replica) to its position in f.reps.
func (f *fleet) replicaIndex(base string) int {
	for i, r := range f.reps {
		if r.ts.URL == base {
			return i
		}
	}
	return 0
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}
