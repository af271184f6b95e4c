package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// runMainEnv, when set in the environment, makes the test binary behave as
// aptserved itself: TestMain runs the daemon on the arguments it holds
// (joined by the ASCII unit separator) and exits with its status.  The
// boot-then-SIGTERM test re-executes the test binary this way, because a
// SIGTERM that arrives before the daemon's handler exists would kill the
// whole test process.
const runMainEnv = "APTSERVED_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(runMainEnv); ok {
		os.Exit(run(strings.Split(args, "\x1f"), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestBootThenSIGTERMDrains is the regression test for the listen-line
// race: a supervisor that sends SIGTERM the moment the daemon announces its
// address must always get a clean drain (exit 0, "drained" line), in server
// and router mode alike.  Before the fix the daemon printed the listen line
// before installing its signal handler, and in this test 24 of the 50
// server-mode boots died of the signal instead.
func TestBootThenSIGTERMDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 100 daemon processes")
	}
	modes := map[string][]string{
		"server": {"-addr", "127.0.0.1:0"},
		// Nothing listens on the backend address; the router boots, probes
		// in vain, and must still drain cleanly.
		"router": {"-addr", "127.0.0.1:0", "-router", "-backends", "127.0.0.1:1"},
	}
	const cycles = 50
	for mode, args := range modes {
		t.Run(mode, func(t *testing.T) {
			// A few boots at a time keep the wall time down without
			// crowding a small machine.
			const parallel = 4
			errs := make(chan error, cycles)
			sem := make(chan struct{}, parallel)
			for i := 0; i < cycles; i++ {
				sem <- struct{}{}
				go func(i int) {
					defer func() { <-sem }()
					if err := bootThenTerm(args); err != nil {
						errs <- fmt.Errorf("cycle %d: %w", i, err)
						return
					}
					errs <- nil
				}(i)
			}
			failed := 0
			for i := 0; i < cycles; i++ {
				if err := <-errs; err != nil {
					failed++
					t.Error(err)
				}
			}
			if failed > 0 {
				t.Errorf("%d of %d boot-then-SIGTERM cycles failed", failed, cycles)
			}
		})
	}
}

// bootThenTerm starts one daemon, sends SIGTERM as soon as its listen line
// appears on stdout, and checks that it drained and exited 0.
func bootThenTerm(args []string) error {
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), runMainEnv+"="+strings.Join(args, "\x1f"))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	timer := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() }) //nolint:errcheck // best effort
	defer timer.Stop()

	sc := bufio.NewScanner(stdout)
	announced := false
	var out strings.Builder
	for sc.Scan() {
		line := sc.Text()
		out.WriteString(line + "\n")
		if !announced && (strings.Contains(line, "aptserved: listening on ") || strings.Contains(line, "aptserved: routing on ")) {
			announced = true
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				return fmt.Errorf("signal: %w", err)
			}
		}
	}
	io.Copy(io.Discard, stdout) //nolint:errcheck // drain an over-long line's remainder
	err = cmd.Wait()
	if !announced {
		return fmt.Errorf("no listen line (wait: %v)\nstdout: %s\nstderr: %s", err, out.String(), stderr.String())
	}
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return fmt.Errorf("exit %v after SIGTERM\nstdout: %s\nstderr: %s", exit, out.String(), stderr.String())
	}
	if err != nil {
		return err
	}
	if !strings.Contains(out.String(), "aptserved: drained: ") {
		return fmt.Errorf("exit 0 without a drained line\nstdout: %s", out.String())
	}
	return nil
}
