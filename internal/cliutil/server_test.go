package cliutil

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/scenario"
)

// shortTimeouts shrinks the listener timeouts for one test.
func shortTimeouts(t *testing.T) {
	t.Helper()
	rh, idle := readHeaderTimeout, idleTimeout
	readHeaderTimeout, idleTimeout = 150*time.Millisecond, 150*time.Millisecond
	t.Cleanup(func() { readHeaderTimeout, idleTimeout = rh, idle })
}

// dialWhenUp connects to addr, retrying while the listener comes up.
func dialWhenUp(t *testing.T, addr string) net.Conn {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			return conn
		}
		if time.Now().After(deadline) {
			t.Fatalf("listener %s never came up: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// closedByServer reports whether the server closes conn within a second,
// reading through any bytes it sends first.
func closedByServer(conn net.Conn) bool {
	conn.SetReadDeadline(time.Now().Add(time.Second))
	_, err := io.Copy(io.Discard, conn)
	var ne net.Error
	return err == nil || !(errors.As(err, &ne) && ne.Timeout())
}

// checkTimeouts drives one listener: a client that never sends its
// headers, and a keep-alive client that goes idle after one request, must
// both be disconnected by the server.
func checkTimeouts(t *testing.T, name, addr string) {
	t.Helper()
	silent := dialWhenUp(t, addr)
	defer silent.Close()
	if !closedByServer(silent) {
		t.Errorf("%s: a client that never sent headers was not disconnected", name)
	}

	idle := dialWhenUp(t, addr)
	defer idle.Close()
	if _, err := io.WriteString(idle, "GET /metrics HTTP/1.1\r\nHost: test\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(idle)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	idle.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := br.ReadByte(); err == nil || !errors.Is(err, io.EOF) {
		t.Errorf("%s: idle keep-alive connection not closed by the server (%v)", name, err)
	}
}

// TestListenersShareServerTimeouts: the -debug listener and the
// coordinator listener are both built by serve, so both enforce the
// header-read and idle timeouts.
func TestListenersShareServerTimeouts(t *testing.T) {
	shortTimeouts(t)

	f := &CampaignFlags{Debug: "127.0.0.1:0"}
	banner := captureStderr(t, func() {
		if err := f.StartDebug("test"); err != nil {
			t.Errorf("StartDebug: %v", err)
		}
	})
	_, rest, ok := strings.Cut(banner, "http://")
	if !ok {
		t.Fatalf("no listener URL in banner %q", banner)
	}
	checkTimeouts(t, "-debug", strings.TrimSuffix(strings.TrimSpace(rest), "/metrics"))

	spec := campaign.Spec{
		Maps:        campaign.Range(1),
		Scenarios:   campaign.Range(1),
		Repeats:     1,
		Generations: []core.Generation{core.V1},
		Timing:      scenario.SILTiming(),
	}
	addr := freePort(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	stdout := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	os.Stdout = devnull // the coordinator's banner
	defer func() { os.Stdout = stdout }()
	go func() {
		_, err := (&CampaignFlags{Serve: addr, LeaseTTL: time.Second}).ServeCampaign(ctx, "test", spec, "")
		done <- err
	}()
	checkTimeouts(t, "coordinator", addr)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("interrupted coordinator returned nil error")
	}
}
