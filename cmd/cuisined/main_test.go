package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cuisines/internal/pipeline"
)

// TestSlowlorisConnectionDropped is the regression test for the bare
// http.Server the daemon used to run: a client that opens a connection
// and trickles an eternally unfinished header block must be dropped by
// ReadHeaderTimeout, not parked forever.
func TestSlowlorisConnectionDropped(t *testing.T) {
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}), 100*time.Millisecond, time.Second, time.Second)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// An incomplete header block: the final blank line never arrives.
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: stalled\r\n")); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	buf := make([]byte, 512)
	for {
		if _, err := conn.Read(buf); err != nil {
			break // server closed the connection
		}
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("stalled connection survived %v; ReadHeaderTimeout not enforced", elapsed)
	}
}

func TestDoctorInventoriesArtifacts(t *testing.T) {
	dir := t.TempDir()
	versions := pipeline.CodecVersions()
	current := fmt.Sprintf("mine-v%d-0123456789abcdef0123456789abcdef.art", versions["mine"])
	orphan := fmt.Sprintf("mine-v%d-0123456789abcdef0123456789abcdef.art", versions["mine"]+7)
	for _, name := range []string{current, orphan, "not-an-artifact.art"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var out strings.Builder
	if err := runDoctor(&out, dir, "average"); err != nil {
		t.Fatalf("doctor failed: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"1 current", "1 orphaned", "1 unrecognized",
		"writable", fmt.Sprintf("mine=v%d", versions["mine"]), "ok\n",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("doctor report missing %q:\n%s", want, report)
		}
	}
}

func TestDoctorRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := runDoctor(&out, "", "nosuchlinkage"); err == nil {
		t.Fatal("doctor accepted an unknown linkage")
	}
}

func TestDoctorWithoutCacheDir(t *testing.T) {
	var out strings.Builder
	if err := runDoctor(&out, "", "average"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "memory-only") {
		t.Errorf("doctor report should note the memory-only store:\n%s", out.String())
	}
}
