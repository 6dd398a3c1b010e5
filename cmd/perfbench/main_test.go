package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run the command itself: with PERFBENCH_RUN_MAIN=1
// in the environment the test binary executes main with its own arguments.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestUnknownFigExitsTwo(t *testing.T) {
	for _, fig := range []string{"8", "13", "abalations", ""} {
		cmd := exec.Command(os.Args[0], "-fig", fig)
		cmd.Env = append(os.Environ(), "PERFBENCH_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("-fig %q: err = %v, want exit status 2; output:\n%s", fig, err, out)
		}
		if !strings.Contains(string(out), "valid values: "+strings.Join(figs, ", ")) {
			t.Errorf("-fig %q: output lacks the valid values:\n%s", fig, out)
		}
	}
}
