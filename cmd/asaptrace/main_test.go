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

// runMainEnv makes the test binary run asaptrace's main instead of the tests,
// so a test can exercise the command's flag handling and exit code.
const runMainEnv = "ASAPTRACE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		os.Args = append([]string{os.Args[0]}, strings.Split(os.Getenv(runMainEnv+"_ARGS"), "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestReplayInvalidParamsAreFlagErrors checks that out-of-range simulation
// parameters fail replay like any other bad flag: exit status 2 and a message
// on stderr, before the trace is read or anything is printed. The missing
// file proves the check runs first; the checked-in capture proves it runs
// before the replay starts.
func TestReplayInvalidParamsAreFlagErrors(t *testing.T) {
	capture := filepath.Join("..", "..", "internal", "exp", "testdata", "canneal.trc.gz")
	missing := filepath.Join(t.TempDir(), "missing.trc.gz")
	for _, holes := range []string{"2", "-0.5", "NaN"} {
		for _, file := range []string{capture, missing} {
			args := []string{"replay", "-fast", "-holes", holes, file}
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), runMainEnv+"=1", runMainEnv+"_ARGS="+strings.Join(args, "\n"))
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("%s: got %v, want exit status 2 (stderr %q)", args, err, stderr.String())
			}
			if !strings.Contains(stderr.String(), "HoleProb") {
				t.Errorf("%s: stderr %q does not name HoleProb", args, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("%s: printed %q before rejecting the flag", args, stdout.String())
			}
		}
	}
}
