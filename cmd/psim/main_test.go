package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with PSIM_RUN_MAIN=1 in
// the environment the test binary executes main with its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("PSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestServersBelowOneExitsTwo(t *testing.T) {
	for _, n := range []string{"0", "-2"} {
		cmd := exec.Command(os.Args[0], "-servers", n)
		cmd.Env = append(os.Environ(), "PSIM_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("-servers %s: err = %v, want exit status 2; output:\n%s", n, err, out)
		}
		if !strings.Contains(string(out), "-servers must be at least 1") {
			t.Errorf("-servers %s: output lacks the reason:\n%s", n, out)
		}
	}
}
