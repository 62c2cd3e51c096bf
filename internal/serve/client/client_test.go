package client

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/serve"
	"repro/internal/sim"
)

// dialCountingServer serves every request with reply at status and
// counts the connections clients open to it.
func dialCountingServer(t *testing.T, status int, reply any) (*Client, *atomic.Int64) {
	t.Helper()
	var dials atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(reply)
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return &Client{BaseURL: srv.URL, HTTP: srv.Client()}, &dials
}

// TestRunReusesConnection: sequential Run calls whose replies carry an
// event trace (the largest replies scenariod sends) must share one
// connection. A body closed before EOF makes the transport drop it, so
// every such reply used to cost a new dial.
func TestRunReusesConnection(t *testing.T) {
	var reply serve.RunResponse
	reply.Stats.AccelEvents = make([]sim.AccelEvent, 2000)
	for i := range reply.Stats.AccelEvents {
		reply.Stats.AccelEvents[i] = sim.AccelEvent{Seq: uint64(i), Dispatch: int64(i), Commit: int64(2 * i)}
	}
	c, dials := dialCountingServer(t, http.StatusOK, reply)
	for i := 0; i < 5; i++ {
		resp, err := c.Run(context.Background(), serve.RunRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Stats.AccelEvents) != len(reply.Stats.AccelEvents) {
			t.Fatalf("reply %d: %d events, want %d", i, len(resp.Stats.AccelEvents), len(reply.Stats.AccelEvents))
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("5 sequential Run calls opened %d connections, want 1", n)
	}
}

// TestErrorReplyReusesConnection: the same holds for non-2xx replies,
// which decodeError reads.
func TestErrorReplyReusesConnection(t *testing.T) {
	msg := strings.Repeat("queue full ", 5000)
	c, dials := dialCountingServer(t, http.StatusServiceUnavailable, serve.ErrorResponse{Error: msg})
	for i := 0; i < 5; i++ {
		_, err := c.Run(context.Background(), serve.RunRequest{})
		if !IsQueueFull(err) || err.(*StatusError).Message != msg {
			t.Fatalf("reply %d: got %v, want the 503 reply", i, err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Errorf("5 sequential rejected Run calls opened %d connections, want 1", n)
	}
}
