package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the utlbsim binary: with
// UTLBSIM_AS_CLI set it runs main() on its arguments, so the tests
// below see the real flag parsing, exit status and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("UTLBSIM_AS_CLI") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// utlbsim runs the CLI with args and returns its exit status, stdout
// and stderr.
func utlbsim(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "UTLBSIM_AS_CLI=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatalf("utlbsim %v: %v", args, err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// A scale too small to generate a trace at is refused in one line
// before anything runs. It used to reach workload.exactify on a pool
// goroutine and die there of an integer divide by zero.
func TestTinyScaleIsAUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "t4", "-scale", "0.001"},
		{"-exp", "all", "-scale", "0.001", "-parallel", "2"},
		{"-exp", "t6", "-scale", "0.003", "-apps", "fft,barnes"},
		{"-exp", "ablation-multiprog", "-scale", "0.005"}, // its runs halve the scale
	} {
		code, stdout, stderr := utlbsim(t, args...)
		if code == 0 || stdout != "" {
			t.Errorf("utlbsim %v: exit %d, stdout %.100q; want a failure and no output", args, code, stdout)
		}
		if strings.Count(stderr, "\n") != 1 || !strings.HasPrefix(stderr, "utlbsim: ") ||
			!strings.Contains(stderr, "is too small for") || strings.Contains(stderr, "goroutine") {
			t.Errorf("utlbsim %v: stderr %q, want one line naming the scale and the application", args, stderr)
		}
	}
	// The smallest scale every application fits still runs.
	if code, stdout, stderr := utlbsim(t, "-exp", "t4", "-scale", "0.005", "-parallel", "2"); code != 0 || !strings.Contains(stdout, "water-spatial") {
		t.Errorf("utlbsim -exp t4 -scale 0.005: exit %d, stderr %q", code, stderr)
	}
}

// With -memprofile the CLI also prints its peak RSS, the kernel's
// VmHWM, where the kernel reports one; without it, nothing.
func TestMemProfilePrintsPeakRSS(t *testing.T) {
	_, statErr := os.Stat("/proc/self/status")
	prof := filepath.Join(t.TempDir(), "heap.mprof")
	code, _, stderr := utlbsim(t, "-exp", "t4", "-scale", "0.005", "-parallel", "1", "-memprofile", prof)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if got := strings.Contains(stderr, "utlbsim: peak RSS "); got != (statErr == nil) || got && !strings.HasSuffix(stderr, " kB\n") {
		t.Errorf("stderr %q: peak RSS line %v, want %v and in kB", stderr, got, statErr == nil)
	}
	if _, _, stderr := utlbsim(t, "-exp", "t4", "-scale", "0.005", "-parallel", "1"); strings.Contains(stderr, "peak RSS") {
		t.Errorf("without -memprofile, stderr %q names the peak RSS", stderr)
	}
	for status, want := range map[string]string{
		"Name:\tutlbsim\nVmPeak:\t  900 kB\nVmHWM:\t   81234 kB\nVmRSS:\t 512 kB\n": "81234 kB",
		"Name:\tutlbsim\n": "",
		"":                 "",
	} {
		if got := vmHWM(status); got != want {
			t.Errorf("vmHWM(%q) = %q, want %q", status, got, want)
		}
	}
}
