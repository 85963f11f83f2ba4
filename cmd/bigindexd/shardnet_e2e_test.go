package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"bigindex/internal/datagen"
)

// freePort reserves an ephemeral localhost port and releases it for the
// process under test to bind. The tiny race window (another process
// grabbing it between Close and bind) is acceptable in tests.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// buildDaemon compiles the bigindexd binary once per test run.
func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bigindexd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building bigindexd: %v\n%s", err, out)
	}
	return bin
}

// startProc launches bigindexd with args, teeing its output to a log file
// the test dumps on failure.
func startProc(t *testing.T, bin, name string, args ...string) *exec.Cmd {
	t.Helper()
	logf, err := os.Create(filepath.Join(t.TempDir(), name+".log"))
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", name, err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		if t.Failed() {
			if data, err := os.ReadFile(logf.Name()); err == nil {
				t.Logf("--- %s log ---\n%s", name, data)
			}
		}
		logf.Close()
	})
	return cmd
}

func waitDial(t *testing.T, addr string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s did not start accepting within %s", addr, timeout)
}

func waitReady(t *testing.T, base string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s/readyz did not turn 200 within %s", base, timeout)
}

func queryJSON(t *testing.T, rawURL string) (int, map[string]interface{}, time.Duration) {
	t.Helper()
	start := time.Now()
	resp, err := http.Get(rawURL)
	if err != nil {
		t.Fatalf("GET %s: %v", rawURL, err)
	}
	defer resp.Body.Close()
	var body map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding %s: %v", rawURL, err)
	}
	return resp.StatusCode, body, time.Since(start)
}

// TestShardProcessKillE2E is the whole-system fault story with real
// processes and real sockets: a coordinator over two replica shard
// servers keeps answering identically when one replica is SIGKILLed
// (failover), degrades honestly — 200, in-deadline, coverage-annotated —
// when the second goes too, and returns to full healthy answers once a
// shard process is restarted on the same address.
func TestShardProcessKillE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes; skipped in -short")
	}
	bin := buildDaemon(t)
	shardA, shardB := freePort(t), freePort(t)
	httpAddr := freePort(t)

	procA := startProc(t, bin, "shard-a", "-preset", "demo", "-shard-serve", shardA)
	procB := startProc(t, bin, "shard-b", "-preset", "demo", "-shard-serve", shardB)
	waitDial(t, shardA, 60*time.Second)
	waitDial(t, shardB, 60*time.Second)

	startProc(t, bin, "coord", "-preset", "demo", "-addr", httpAddr,
		"-shard-peers", shardA+";"+shardB)
	base := "http://" + httpAddr
	waitReady(t, base, 60*time.Second)

	ds, err := datagen.Preset("demo")
	if err != nil {
		t.Fatal(err)
	}
	kw := url.QueryEscape(topTerms(ds, 1)[0])
	q := fmt.Sprintf("%s/query?q=%s&algo=bkws&layer=0&k=5&nocache=1&timeout=10s", base, kw)

	code, healthy, _ := queryJSON(t, q)
	if code != http.StatusOK || healthy["degraded"] != nil {
		t.Fatalf("healthy fleet: code %d, degraded %v", code, healthy["degraded"])
	}
	want, _ := json.Marshal(healthy["matches"])

	// Kill one of two replicas mid-serving: every block still has a live
	// replica, so answers stay byte-identical with no degradation.
	procA.Process.Signal(syscall.SIGKILL)
	procA.Wait()
	code, body, _ := queryJSON(t, q)
	if code != http.StatusOK || body["degraded"] != nil {
		t.Fatalf("after killing one replica: code %d, degraded %v (reason %v)",
			code, body["degraded"], body["degraded_reason"])
	}
	if got, _ := json.Marshal(body["matches"]); string(got) != string(want) {
		t.Fatalf("failover changed the answer:\n%s\nvs healthy\n%s", got, want)
	}

	// Kill the last replica: the query must still return 200 inside its
	// deadline, marked degraded with an honest coverage block.
	procB.Process.Signal(syscall.SIGKILL)
	procB.Wait()
	code, body, elapsed := queryJSON(t, q)
	if code != http.StatusOK {
		t.Fatalf("after killing all replicas: code %d", code)
	}
	if elapsed > 12*time.Second {
		t.Fatalf("degraded query took %s, past its 10s deadline", elapsed)
	}
	if body["degraded"] != true || body["degraded_reason"] != "shards" {
		t.Fatalf("expected shard degradation, got degraded=%v reason=%v",
			body["degraded"], body["degraded_reason"])
	}
	cov, _ := body["coverage"].(map[string]interface{})
	if cov == nil {
		t.Fatalf("degraded response missing coverage block: %v", body)
	}
	frac, _ := cov["fraction"].(float64)
	unver, _ := cov["roots_unverified"].(float64)
	if !(frac < 1 || unver > 0) {
		t.Fatalf("coverage block claims nothing lost: %v", cov)
	}

	// Restart a shard on A's old address: after the breaker cooldown the
	// coordinator recovers to full healthy answers on its own.
	startProc(t, bin, "shard-a2", "-preset", "demo", "-shard-serve", shardA)
	waitDial(t, shardA, 60*time.Second)
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, body, _ = queryJSON(t, q)
		if code == http.StatusOK && body["degraded"] == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no recovery after shard restart: code %d degraded %v", code, body["degraded"])
		}
		time.Sleep(500 * time.Millisecond)
	}
	if got, _ := json.Marshal(body["matches"]); string(got) != string(want) {
		t.Fatalf("post-recovery answer differs:\n%s\nvs healthy\n%s", got, want)
	}
}
