package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running aptserved process.
type daemon struct {
	cmd  *exec.Cmd
	addr string // host:port it listens on

	mu     sync.Mutex
	output bytes.Buffer // combined stdout/stderr after the listen line
	copied chan struct{}
}

// listenRE matches the line aptserved prints once its listener is bound,
// in server ("listening on ADDR") and router ("routing on ADDR across N
// backends") mode alike.
var listenRE = regexp.MustCompile(`aptserved: (?:listening|routing) on (\S+)`)

// startDaemon execs bin with args plus a loopback :0 listen address and
// returns once the daemon reports its bound address.  The daemon gets
// SIGKILL if this process dies first, so a crashed benchmark leaves no
// daemon behind.
func startDaemon(bin string, args ...string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout, cmd.Stderr = pw, pw
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	pw.Close()
	d := &daemon{cmd: cmd, copied: make(chan struct{})}
	found := make(chan string, 1)
	go func() {
		defer close(d.copied)
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			if !announced {
				if m := listenRE.FindStringSubmatch(line); m != nil {
					announced = true
					found <- m[1]
					continue
				}
			}
			d.mu.Lock()
			d.output.WriteString(line + "\n")
			d.mu.Unlock()
		}
		io.Copy(io.Discard, pr) //nolint:errcheck // drain an over-long line's remainder
		if !announced {
			close(found)
		}
	}()
	select {
	case addr, ok := <-found:
		if !ok {
			d.stop() //nolint:errcheck // already failing
			return nil, fmt.Errorf("%s exited before listening: %s", bin, d.log())
		}
		d.addr = addr
		if err := d.awaitReady(60 * time.Second); err != nil {
			d.stop() //nolint:errcheck // already failing
			return nil, err
		}
		return d, nil
	case <-time.After(60 * time.Second):
		d.stop() //nolint:errcheck // already failing
		return nil, fmt.Errorf("%s did not listen within 60s: %s", bin, d.log())
	}
}

// awaitReady polls /healthz until it answers 200.  aptserved prints its
// listen line before it installs its SIGTERM handler and starts serving, so
// a daemon stopped between the two dies of the signal instead of draining;
// an answered request means the handler is in place.
func (d *daemon) awaitReady(limit time.Duration) error {
	cl := &http.Client{Timeout: 5 * time.Second}
	defer cl.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for {
		resp, err := cl.Get("http://" + d.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready within %v: %v: %s", d.addr, limit, err, d.log())
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.TrimSpace(d.output.String())
}

// peakRSSMB reads VmHWM (peak resident set) from /proc/<pid>/status.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// stop drains the daemon with SIGTERM and waits for it to exit, escalating
// to SIGKILL after 30 seconds.  A clean drain exits 0.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && err != os.ErrProcessDone {
		return err
	}
	done := make(chan error, 1)
	go func() {
		<-d.copied
		done <- d.cmd.Wait()
	}()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("aptserved exit: %v: %s", err, d.log())
		}
		return nil
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // escalation; Wait reports the outcome
		<-done
		return fmt.Errorf("aptserved did not drain within 30s")
	}
}

// cluster is the set of daemons one workload runs against: a single server,
// or a router in front of two backends.  base is the URL clients send to.
type cluster struct {
	daemons []*daemon // backends first, router last
	base    string
}

// bootCluster starts the daemons a workload needs.
func bootCluster(bin string, routed bool) (*cluster, error) {
	if !routed {
		d, err := startDaemon(bin)
		if err != nil {
			return nil, err
		}
		return &cluster{daemons: []*daemon{d}, base: "http://" + d.addr}, nil
	}
	c := &cluster{}
	var addrs []string
	for i := 0; i < 2; i++ {
		d, err := startDaemon(bin)
		if err != nil {
			c.stop() //nolint:errcheck // already failing
			return nil, err
		}
		c.daemons = append(c.daemons, d)
		addrs = append(addrs, d.addr)
	}
	r, err := startDaemon(bin, "-router", "-backends", strings.Join(addrs, ","))
	if err != nil {
		c.stop() //nolint:errcheck // already failing
		return nil, err
	}
	c.daemons = append(c.daemons, r)
	c.base = "http://" + r.addr
	return c, nil
}

// backendAddrs returns the backends' host:port addresses (routed only).
func (c *cluster) backendAddrs() []string {
	var out []string
	for _, d := range c.daemons[:len(c.daemons)-1] {
		out = append(out, d.addr)
	}
	return out
}

// peakRSSMB sums VmHWM over every daemon of the cluster.
func (c *cluster) peakRSSMB() (float64, error) {
	total := 0.0
	for _, d := range c.daemons {
		mb, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// stop drains the router first, then the backends, and waits for all.  A
// second stop does nothing.
func (c *cluster) stop() error {
	var first error
	for i := len(c.daemons) - 1; i >= 0; i-- {
		if err := c.daemons[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	c.daemons = nil
	return first
}
