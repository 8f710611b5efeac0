package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one rallocd subprocess at its default settings, listening
// on a free loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan error
	log    bytes.Buffer
}

// startDaemon launches rallocd and returns once /healthz answers.
func startDaemon(bin string, conns int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()

	d := &daemon{
		base:   "http://" + addr,
		exited: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			Proxy:               nil,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	d.cmd = exec.Command(bin, "-listen", addr)
	// The daemon dies with the benchmark, even when the benchmark is
	// killed before it can stop the daemon itself.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start rallocd: %w", err)
	}
	go func() { d.exited <- d.cmd.Wait() }()

	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse only
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case werr := <-d.exited:
			d.exited <- werr
			return nil, fmt.Errorf("rallocd exited during start-up (%v): %s", werr, d.log.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop() //nolint:errcheck // already failing
			return nil, fmt.Errorf("rallocd not healthy after 20s: %s", d.log.String())
		}
	}
}

// warmConnections opens n keep-alive connections, so the timed window
// does not pay TCP set-up.
func (d *daemon) warmConnections(n int) error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := d.client.Get(d.base + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for connection reuse only
				resp.Body.Close()
			}
			errs <- err
		}()
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stop sends SIGTERM, waits for the graceful drain and reaps the
// process, killing it if the drain takes longer than 30 seconds.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		// Already gone; collect its status.
		return <-d.exited
	}
	select {
	case err := <-d.exited:
		return err
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // reaped just below
		<-d.exited
		return fmt.Errorf("rallocd did not drain within 30s")
	}
}

// peakRSSMB is the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// peakRSSMB reads VmHWM of a process from /proc.
func peakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// counters scrapes the daemon's /metrics counters.
func (d *daemon) counters() (map[string]int64, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return snap.Counters, nil
}
