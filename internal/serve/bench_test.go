package serve_test

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/sim"
)

// benchDaemon starts a loopback daemon without testing.T cleanup
// plumbing (benchmarks own the lifecycle explicitly).
func benchDaemon(b *testing.B, opts serve.Options) (*serve.Server, *client.Client, func()) {
	b.Helper()
	srv, err := serve.New(opts)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	return srv, client.New(ts.URL), func() {
		ts.Close()
		srv.Close()
	}
}

// BenchmarkScenariodThroughput measures end-to-end daemon request cost
// in five regimes: cold (every request a distinct spec — simulation
// dominates), warm (every request a store memory hit — HTTP round-trip
// dominates), measure-hit and static-hit (the same memory hit on the
// /v1/measure and /v1/static endpoints, so any per-request work that
// grows with the program shows here), and duplicate-heavy (8 concurrent
// clients racing for one digest — the coalescing path).
func BenchmarkScenariodThroughput(b *testing.B) {
	ctx := context.Background()

	b.Run("cold", func(b *testing.B) {
		_, cl, stop := benchDaemon(b, serve.Options{Workers: 2})
		defer stop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := serve.RunRequest{Config: sim.HighPerfConfig(), Workload: synthSpec(int64(10_000 + i))}
			if _, err := cl.Run(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		_, cl, stop := benchDaemon(b, serve.Options{Workers: 2})
		defer stop()
		req := serve.RunRequest{Config: sim.HighPerfConfig(), Workload: synthSpec(1)}
		if _, err := cl.Run(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Run(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("measure-hit", func(b *testing.B) {
		_, cl, stop := benchDaemon(b, serve.Options{Workers: 2})
		defer stop()
		req := serve.MeasureRequest{Config: sim.HighPerfConfig(), Workload: synthSpec(1)}
		if _, err := cl.Measure(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Measure(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("static-hit", func(b *testing.B) {
		_, cl, stop := benchDaemon(b, serve.Options{Workers: 2})
		defer stop()
		req := serve.StaticRequest{Config: sim.HighPerfConfig(), Workload: synthSpec(1)}
		if _, err := cl.Static(ctx, req); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := cl.Static(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("duplicate-heavy", func(b *testing.B) {
		_, cl, stop := benchDaemon(b, serve.Options{Workers: 2})
		defer stop()
		const clients = 8
		b.ReportAllocs()
		b.ResetTimer()
		// Each iteration: one fresh digest, 8 clients racing for it.
		// One simulation serves all eight (coalesce or hit).
		for i := 0; i < b.N; i++ {
			req := serve.RunRequest{Config: sim.HighPerfConfig(), Workload: synthSpec(int64(20_000 + i))}
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := cl.Run(ctx, req); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		}
	})
}
