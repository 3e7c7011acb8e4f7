package main

import (
	"bytes"
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

// serverProc is one running cmd/serve process.
type serverProc struct {
	cmd   *exec.Cmd
	addr  string
	setup time.Duration // exec to the first 200 from /health
	// quietBoot reports the host stole no CPU time during start-up.
	quietBoot bool
	log       *os.File
	exited    chan struct{} // closed once the process has been reaped
	exitErr   error
}

// setupSample is one start-up time and whether the host was quiet then.
type setupSample struct {
	sec   float64
	quiet bool
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs cmd/serve with -logical-remote (plus extra flags) and
// waits for /health to answer 200. Every other flag stays at its default.
func startServer(bin, logPath string, extra ...string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-logical-remote"}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	steal0 := stealTicks()
	start := time.Now()
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &serverProc{cmd: cmd, addr: addr, log: lf, exited: make(chan struct{})}
	go func() {
		p.exitErr = cmd.Wait()
		close(p.exited)
	}()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	deadline := start.Add(60 * time.Second)
	for {
		select {
		case <-p.exited:
			lf.Close()
			return nil, fmt.Errorf("server exited during start-up (%v); see %s", p.exitErr, logPath)
		default:
		}
		resp, err := client.Get("http://" + addr + "/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				p.setup = time.Since(start)
				p.quietBoot = stealTicks() == steal0
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, fmt.Errorf("server at %s not healthy after 60s; see %s", addr, logPath)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// stop sends SIGTERM (graceful drain, feedback flush, final snapshot) and
// waits for the process to exit, escalating to SIGKILL after 20 s. A
// process that already exited (killed, or crashed) is not signalled again.
func (p *serverProc) stop() error {
	defer p.log.Close()
	select {
	case <-p.exited:
		return nil
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
		return p.exitErr
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return errors.New("server ignored SIGTERM for 20s")
	}
}

// kill SIGKILLs the process and waits for it to be reaped.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
	p.log.Close()
}

func (p *serverProc) url(path string) string { return "http://" + p.addr + path }

// procSample is a reading of the server's kernel counters.
type procSample struct {
	cpuTicks  uint64 // utime + stime, all threads (/proc/<pid>/stat)
	syscw     uint64 // write syscalls (/proc/<pid>/io)
	ctxSwitch uint64 // voluntary + involuntary, summed over threads
	hwmKiB    uint64 // VmHWM
}

// clockTicks is USER_HZ, the unit of utime/stime; 100 on every Linux
// architecture Go supports.
const clockTicks = 100

// cpuTicks reads the server's user+system CPU time, all threads.
func (p *serverProc) cpuTicks() (uint64, error) {
	path := filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid), "stat")
	stat, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short %s", path)
	}
	ut, _ := strconv.ParseUint(f[11], 10, 64)
	st, _ := strconv.ParseUint(f[12], 10, 64)
	return ut + st, nil
}

func (p *serverProc) sample() (procSample, error) {
	var s procSample
	var err error
	if s.cpuTicks, err = p.cpuTicks(); err != nil {
		return s, err
	}
	dir := filepath.Join("/proc", strconv.Itoa(p.cmd.Process.Pid))
	if io, err := os.ReadFile(filepath.Join(dir, "io")); err == nil {
		s.syscw = statusField(string(io), "syscw:")
	}
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return s, err
	}
	s.hwmKiB = statusField(string(status), "VmHWM:")
	tasks, _ := os.ReadDir(filepath.Join(dir, "task"))
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, "task", t.Name(), "status"))
		if err != nil {
			continue // the thread exited between listing and reading
		}
		s.ctxSwitch += statusField(string(b), "voluntary_ctxt_switches:") + statusField(string(b), "nonvoluntary_ctxt_switches:")
	}
	return s, nil
}

// statusField returns the first integer after key in a /proc text file.
func statusField(text, key string) uint64 {
	i := strings.Index(text, key)
	if i < 0 {
		return 0
	}
	f := strings.Fields(text[i+len(key):])
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseUint(f[0], 10, 64)
	return v
}

// serverMetrics is the part of GET /metrics the benchmark reads.
type serverMetrics struct {
	Engine struct {
		PlanCache struct {
			Hits   uint64 `json:"hits"`
			Misses uint64 `json:"misses"`
		} `json:"plan_cache"`
	} `json:"engine"`
}

// promSample holds the Go runtime gauges read from GET /metrics/prom.
type promSample struct {
	gcCycles  float64
	heapInuse float64
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func (p *serverProc) metrics(client *http.Client) (serverMetrics, error) {
	var m serverMetrics
	return m, getJSON(client, p.url("/metrics"), &m)
}

func (p *serverProc) prom(client *http.Client) (promSample, error) {
	var s promSample
	resp, err := client.Get(p.url("/metrics/prom"))
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		v, _ := strconv.ParseFloat(f[1], 64)
		switch f[0] {
		case "intellisphere_gc_cycles_total":
			s.gcCycles = v
		case "intellisphere_heap_inuse_bytes":
			s.heapInuse = v
		}
	}
	return s, nil
}
