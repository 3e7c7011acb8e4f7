package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"
)

// respLog records responses for the checks that run after the timed
// window. Identical bodies are stored once: hot-stream answers the same 48
// statements tens of thousands of times, and keeping one copy per distinct
// body bounds the client's memory without skipping any response — every
// request keeps the index of its exact body.
type respLog struct {
	index  map[string]int32
	bodies [][]byte
	seq    []int32
}

func newRespLog(n int) *respLog {
	return &respLog{index: map[string]int32{}, seq: make([]int32, 0, n)}
}

func (l *respLog) add(b []byte) {
	i, ok := l.index[string(b)]
	if !ok {
		i = int32(len(l.bodies))
		c := append([]byte(nil), b...)
		l.bodies = append(l.bodies, c)
		l.index[string(c)] = i
	}
	l.seq = append(l.seq, i)
}

// window is the measurement of one timed window.
type window struct {
	ops       int       // operations completed
	attempted int       // operations attempted
	failed    int       // operations that got no valid answer
	latencies []float64 // ms per request
	start     time.Time
	ends      []time.Time // completion time of each timed request
	perReq    int         // operations per request
}

// newClient returns an HTTP client that keeps one connection to the server.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}
}

// post sends one request and reads the whole body into buf.
func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

func sqlBody(sql string) []byte {
	b, _ := json.Marshal(map[string]string{"sql": sql})
	return b
}

// streamRun drives hot-stream: one /query/stream connection held for the
// whole run, a fixed window of pipelined statements in flight. The first
// pass over the mix is untimed; the timed window starts at the first send
// of pass two (right after mark runs) and ends at the last frame. A statement whose frame never
// arrives counts as failed (the stream is not reopened).
func streamRun(addr string, mix []string, rounds, inflight int, mark func()) (window, *respLog, error) {
	// The client's own garbage collector stays off for the run, so it does
	// not take a core from the server in the middle of the window.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var w window
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return w, nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(170 * time.Second))
	warm := len(mix)
	total := warm + rounds*len(mix)
	chunks := make([][]byte, len(mix))
	for i, s := range mix {
		chunks[i] = []byte(strconv.FormatInt(int64(len(s)+1), 16) + "\r\n" + s + "\n\r\n")
	}
	head := "POST /query/stream HTTP/1.1\r\nHost: " + addr +
		"\r\nContent-Type: application/x-ndjson\r\nTransfer-Encoding: chunked\r\n\r\n"
	if _, err := io.WriteString(conn, head); err != nil {
		return w, nil, err
	}

	slots := make(chan struct{}, inflight)
	// sent carries each statement's send time to the reader; it never holds
	// more than inflight entries, since a send first takes a slot.
	sent := make(chan time.Time, inflight)
	warmDone := make(chan struct{})
	dead := make(chan struct{})
	var t0 time.Time
	writerDone := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if i == warm {
				select {
				case <-warmDone:
				case <-dead:
					writerDone <- nil
					return
				}
				mark()
				t0 = time.Now()
			}
			select {
			case slots <- struct{}{}:
			case <-dead:
				writerDone <- nil
				return
			}
			sent <- time.Now()
			if _, err := conn.Write(chunks[i%len(mix)]); err != nil {
				writerDone <- err
				return
			}
		}
		_, err := io.WriteString(conn, "0\r\n\r\n")
		writerDone <- err
	}()

	log := newRespLog(total)
	w.latencies = make([]float64, 0, total-warm)
	w.ends = make([]time.Time, 0, total-warm)
	w.perReq = 1
	br := bufio.NewReaderSize(conn, 64<<10)
	var readErr error
	received := 0
	func() {
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			readErr = err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			readErr = fmt.Errorf("stream status %s", resp.Status)
			return
		}
		fr := bufio.NewReaderSize(resp.Body, 64<<10)
		var frame []byte
		for received < total {
			line, err := fr.ReadSlice('\n')
			if err != nil {
				readErr = err
				return
			}
			n, err := strconv.Atoi(string(bytes.TrimSpace(line)))
			if err != nil || n <= 0 {
				readErr = fmt.Errorf("bad frame length %q", line)
				return
			}
			if cap(frame) < n {
				frame = make([]byte, n)
			}
			frame = frame[:n]
			if _, err := io.ReadFull(fr, frame); err != nil {
				readErr = err
				return
			}
			end := time.Now()
			start := <-sent
			<-slots
			log.add(frame)
			if received >= warm {
				w.latencies = append(w.latencies, float64(end.Sub(start).Nanoseconds())/1e6)
				w.ends = append(w.ends, end)
			}
			received++
			if received == warm {
				close(warmDone)
			}
		}
	}()
	if received < total {
		close(dead)
		conn.Close()
	}
	werr := <-writerDone
	if received < warm {
		return w, nil, fmt.Errorf("stream failed during the untimed pass after %d frames: %v", received, readErr)
	}
	w.attempted = total - warm
	w.ops = received - warm
	w.failed = w.attempted - w.ops
	w.start = t0
	if readErr != nil && w.failed == 0 {
		return w, nil, readErr
	}
	if werr != nil && w.failed == 0 && !errors.Is(werr, net.ErrClosed) {
		return w, nil, werr
	}
	return w, log, nil
}

// requestLoop drives one keep-alive HTTP/1.1 connection as a closed loop
// with up to inflight requests pipelined on it (1 is strict
// request-response): warm untimed requests first, then, once every warm
// response is in, the timed ones; mark runs just before the first timed
// send. body(i) returns request i's path and body. The requests are
// written and the responses read directly on the connection, so the client
// adds no goroutine hand-offs of its own (net/http's Transport runs a
// reader and a writer goroutine per connection) to what the window times.
func requestLoop(addr string, warm, timed, inflight int, mark func(), body func(i int) (string, []byte)) (window, *respLog, []int, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var w window
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return w, nil, nil, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(170 * time.Second))
	total := warm + timed
	slots := make(chan struct{}, inflight)
	sent := make(chan time.Time, inflight) // never more than inflight entries
	warmDone := make(chan struct{})
	dead := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		var req []byte
		for i := 0; i < total; i++ {
			if i == warm {
				select {
				case <-warmDone:
				case <-dead:
					writerDone <- nil
					return
				}
				mark()
				w.start = time.Now()
			}
			select {
			case slots <- struct{}{}:
			case <-dead:
				writerDone <- nil
				return
			}
			path, b := body(i)
			req = append(req[:0], "POST "...)
			req = append(req, path...)
			req = append(req, " HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: "...)
			req = strconv.AppendInt(req, int64(len(b)), 10)
			req = append(req, "\r\n\r\n"...)
			req = append(req, b...)
			sent <- time.Now()
			if _, err := conn.Write(req); err != nil {
				writerDone <- err
				return
			}
		}
		writerDone <- nil
	}()
	if warm == 0 {
		close(warmDone)
	}

	log := newRespLog(total)
	status := make([]int, 0, total)
	w.latencies = make([]float64, 0, timed)
	w.ends = make([]time.Time, 0, timed)
	w.perReq = 1
	br := bufio.NewReaderSize(conn, 64<<10)
	var buf bytes.Buffer
	var readErr error
	for i := 0; i < total; i++ {
		resp, err := http.ReadResponse(br, nil)
		if err == nil {
			buf.Reset()
			_, err = buf.ReadFrom(resp.Body)
			resp.Body.Close()
		}
		if err != nil {
			readErr = fmt.Errorf("response %d: %w", i, err)
			break
		}
		end := time.Now()
		start := <-sent
		<-slots
		if i >= warm {
			w.latencies = append(w.latencies, float64(end.Sub(start).Nanoseconds())/1e6)
			w.ends = append(w.ends, end)
		}
		log.add(buf.Bytes())
		status = append(status, resp.StatusCode)
		if i == warm-1 {
			close(warmDone)
		}
	}
	if readErr != nil {
		close(dead)
		conn.Close()
	}
	werr := <-writerDone
	if readErr != nil {
		return w, nil, nil, readErr
	}
	if werr != nil {
		return w, nil, nil, werr
	}
	w.attempted, w.ops = timed, timed
	return w, log, status, nil
}
