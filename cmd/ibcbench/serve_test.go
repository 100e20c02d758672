package main

import (
	"bufio"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ibcbench/internal/store"
)

// TestServeStoreShutsDownOnCancel serves a store on an ephemeral port,
// answers one request, then cancels the context: serveStore must return
// nil and leave the store closed.
func TestServeStoreShutsDownOnCancel(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() { done <- serveStore(ctx, st, "127.0.0.1:0", false, pw) }()

	banner, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("read banner: %v", err)
	}
	i := strings.Index(banner, "http://")
	if i < 0 {
		t.Fatalf("banner has no URL: %q", banner)
	}
	url := strings.TrimSpace(banner[i:])
	resp, err := http.Get(url + "api/runs")
	if err != nil {
		t.Fatalf("GET /api/runs: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /api/runs: status %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serveStore after cancel: %v", err)
		}
	case <-time.After(shutdownGrace + 5*time.Second):
		t.Fatal("serveStore did not return after cancel")
	}
	if _, _, err := st.Ingest("experiment", "", "t", []byte(`{}`)); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("ingest after shutdown: err = %v, want a closed store", err)
	}
}
