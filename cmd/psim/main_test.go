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

// TestServersBelowOneExitsTwo checks every count flag psim validates:
// a value below the flag's minimum exits 2 with a message naming it.
func TestServersBelowOneExitsTwo(t *testing.T) {
	for _, tc := range []struct{ flag, val, want string }{
		{"-servers", "0", "-servers must be at least 1"},
		{"-servers", "-2", "-servers must be at least 1"},
		{"-workers", "0", "-workers must be at least 1"},
		{"-workers", "-1", "-workers must be at least 1"},
		{"-jobs", "-1", "-jobs must be at least 0"},
		{"-fio", "-1", "-fio must be at least 0"},
		{"-streams", "-3", "-streams must be at least 0"},
	} {
		t.Run(tc.flag+"="+tc.val, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.flag, tc.val)
			cmd.Env = append(os.Environ(), "PSIM_RUN_MAIN=1")
			out, err := cmd.CombinedOutput()
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() != 2 {
				t.Fatalf("%s %s: err = %v, want exit status 2; output:\n%s", tc.flag, tc.val, err, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("%s %s: output lacks %q:\n%s", tc.flag, tc.val, tc.want, out)
			}
		})
	}
}
