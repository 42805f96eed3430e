package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv makes the test binary run asapsim's main instead of the tests,
// so a test can exercise the command's flag handling and exit code.
const runMainEnv = "ASAPSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestInvalidParamsAreFlagErrors checks that out-of-range simulation
// parameters fail like any other bad flag: exit status 2 and a message on
// stderr, before anything is simulated or printed.
func TestInvalidParamsAreFlagErrors(t *testing.T) {
	for _, holes := range []string{"2", "-0.5", "NaN"} {
		cmd := exec.Command(os.Args[0], "-holes", holes)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-holes %s: got %v, want exit status 2", holes, err)
		}
		if !strings.Contains(stderr.String(), "HoleProb") {
			t.Errorf("-holes %s: stderr %q does not name HoleProb", holes, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("-holes %s: printed %q before rejecting the flag", holes, stdout.String())
		}
	}
}
