package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running instance of the program under test.
type server struct {
	url  string
	rss  func() (float64, error) // peak resident set, MiB
	cpu  func() (float64, error) // user plus system CPU time so far, s
	stop func() error            // returns once the server has exited
}

// startFunc starts a fresh, empty server for workload w. dataDir is an
// empty directory the server may use for durable sessions.
type startFunc func(ctx context.Context, w *workload, dataDir string) (*server, error)

// spawnBcserve returns a startFunc that execs the bcserve binary at bin on
// a free loopback port, logging to logDir.
func spawnBcserve(bin, logDir string) startFunc {
	return func(ctx context.Context, w *workload, dataDir string) (*server, error) {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		args := []string{"-addr", addr}
		if w.durable {
			args = append(args, "-data-dir", dataDir, "-fsync", "interval",
				"-wal-compact-bytes", strconv.Itoa(walCompactBytes))
		}
		logf, err := os.Create(filepath.Join(logDir, w.name+".log"))
		if err != nil {
			return nil, err
		}
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = logf, logf
		// A benchmark killed mid-run takes its server with it.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			logf.Close()
			return nil, fmt.Errorf("starting bcserve: %w", err)
		}
		exited := make(chan error, 1)
		go func() {
			exited <- cmd.Wait()
			logf.Close()
		}()
		stop := func() error {
			cmd.Process.Signal(syscall.SIGTERM)
			select {
			case err := <-exited:
				return err
			case <-time.After(15 * time.Second):
				cmd.Process.Kill()
				<-exited
				return errors.New("bcserve ignored SIGTERM for 15s; killed")
			}
		}
		s := &server{
			url:  "http://" + addr,
			rss:  func() (float64, error) { return peakRSS(fmt.Sprintf("/proc/%d/status", cmd.Process.Pid)) },
			cpu:  func() (float64, error) { return cpuSeconds(fmt.Sprintf("/proc/%d/stat", cmd.Process.Pid)) },
			stop: stop,
		}
		if err := waitReady(ctx, s.url, exited); err != nil {
			stop()
			return nil, err
		}
		return s, nil
	}
}

// freeAddr picks an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitReady polls GET /graphs until the server answers 200.
func waitReady(ctx context.Context, url string, exited <-chan error) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-exited:
			return fmt.Errorf("bcserve exited during start-up: %v", err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
		resp, err := http.Get(url + "/graphs")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
	}
	return errors.New("bcserve not ready after 30s")
}

// peakRSS reads VmHWM from a /proc/<pid>/status file, in MiB.
func peakRSS(statusPath string) (float64, error) {
	f, err := os.Open(statusPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", statusPath)
}

// clockTicks is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux architecture Go supports).
const clockTicks = 100

// cpuSeconds reads the user plus system CPU time of every thread of a
// process from a /proc/<pid>/stat file. Time the hypervisor steals from
// the virtual CPU is not in it.
func cpuSeconds(statPath string) (float64, error) {
	data, err := os.ReadFile(statPath)
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields 3 on follow it.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed %s", statPath)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed %s", statPath)
	}
	var ticks float64
	for _, s := range f[11:13] { // utime and stime, fields 14 and 15
		t, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", statPath, err)
		}
		ticks += t
	}
	return ticks / clockTicks, nil
}

// newClient returns an HTTP client holding at most conns connections to
// the server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// call sends one request with an optional JSON (or, for []byte, raw) body
// and decodes a JSON reply into out. A transport error, a status other
// than want, or an undecodable reply is an error.
func call(ctx context.Context, c *http.Client, method, url string, body any, want int, out any) error {
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case []byte:
		rd = bytes.NewReader(b)
	default:
		buf, err := json.Marshal(b)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return err
	}
	if _, raw := body.([]byte); body != nil && !raw {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading reply: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decoding reply: %w", method, url, err)
		}
	}
	return nil
}
