package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestHostileFlagsExitTwo builds the binary and checks that parameters
// no generator can honour end in a message and exit status 2 — not in a
// runtime panic (`-d -1`) or a 2^40-vertex allocation (`-d 40`) — and
// that a good command line still writes an instance.
func TestHostileFlagsExitTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "stpgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-d", "-1"},
		{"-d", "40"},
		{"-family", "cc", "-a", "-2"},
		{"-family", "bip", "-steiner", "-7"},
		{"-family", "klein"},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("stpgen %v: %v, want exit status 2", args, err)
		}
		if !strings.HasPrefix(stderr.String(), "stpgen: ") || strings.Contains(stderr.String(), "goroutine") {
			t.Errorf("stpgen %v: stderr %q, want a one-line stpgen: message", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("stpgen %v wrote %d bytes of instance before failing", args, stdout.Len())
		}
	}
	out, err := exec.Command(bin, "-family", "hc", "-d", "3").Output()
	if err != nil || !strings.Contains(string(out), "Nodes 8") {
		t.Fatalf("stpgen -family hc -d 3: %v\n%s", err, out)
	}
}
