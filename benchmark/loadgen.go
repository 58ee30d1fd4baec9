package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// The paced phases' load generator is a process of its own: the benchmark
// binary started again with loadgenEnv set. Inside the server's process a
// generator goroutine competes with the partition workers for the Go
// scheduler's two Ps, and a client whose 202 has already arrived sits
// unnoticed until a CPU-bound worker next blocks; its acks, its lateness
// and every verdict timed from its sends then measure the scheduler, not
// the system. A separate process is woken by the kernel, like a real log
// shipper. It has one goroutine and one keep-alive connection, regenerates
// the corpus from the same seed, and talks to the harness over its
// standard streams:
//
//	child  → "warm <refused>"           the warm-up prefix is POSTed
//	parent → "go <start unix nanos>"    send the timed lines, starting then
//	child  → one JSON loadgenResult     and exits
//
// The saturation rounds send from inside the server's process instead, with
// the same sender: a closed loop on one connection moves 32 lines per round
// trip, and on two busy cores the cross-process round trip is twice as long
// and varies by a fifth from run to run, so it would be the thing measured
// (40 000 ± 4 000 lines/s against 78 000 ± 500 on steady).

// loadgenEnv names the environment variable that carries the child's spec
// and turns the binary into a load generator.
const loadgenEnv = "BENCH_LOADGEN"

// loadgenSpec tells the child what to send where.
type loadgenSpec struct {
	URL      string  `json:"url"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Warm     int     `json:"warm"`
	Timed    int     `json:"timed"`
	Rate     float64 `json:"rate"` // lines per second
}

// loadgenResult is what the child measured over the timed lines.
type loadgenResult struct {
	Refused int       `json:"refused"` // lines not answered 202
	AckMs   []float64 `json:"ack_ms"`  // per POST; from its due time when paced
	LateMs  []float64 `json:"late_ms"` // per POST, paced only: send-time slip behind schedule
}

// postInterval is the open-loop schedule's spacing; both processes derive
// POST i's due time from it.
func postInterval(rate float64) time.Duration {
	return time.Duration(float64(postLines) / rate * float64(time.Second))
}

// sender POSTs newline-joined bodies to one /ingest URL over one
// keep-alive connection, from one goroutine.
type sender struct {
	url    string
	client *http.Client
}

func newSender(url string) *sender {
	return &sender{url: url, client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}}
}

// post sends one body and returns how many of its lines were refused:
// none on a 202, all of them otherwise.
func (s *sender) post(body string) int {
	resp, err := s.client.Post(s.url, "text/plain", strings.NewReader(body))
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			return 0
		}
	}
	return strings.Count(body, "\n") + 1
}

// warm sends the untimed prefix back-to-back.
func (s *sender) warm(bodies []string) (refused int) {
	for _, body := range bodies {
		refused += s.post(body)
	}
	return refused
}

// timed sends the timed bodies from start on: on the open-loop schedule
// when rate is positive, back-to-back otherwise.
func (s *sender) timed(bodies []string, rate float64, start time.Time) loadgenResult {
	res := loadgenResult{AckMs: make([]float64, 0, len(bodies))}
	sleepUntil(start)
	for i, body := range bodies {
		from := time.Now()
		if rate > 0 {
			// Open loop: send on schedule however slowly the system answers,
			// and time the POST from when it was due.
			due := start.Add(time.Duration(i) * postInterval(rate))
			sleepUntil(due)
			res.LateMs = append(res.LateMs, float64(time.Since(due))/1e6)
			from = due
		}
		res.Refused += s.post(body)
		res.AckMs = append(res.AckMs, float64(time.Since(from))/1e6)
	}
	return res
}

// loadgenMain is the child's whole life.
func loadgenMain(spec string) error {
	var s loadgenSpec
	if err := json.Unmarshal([]byte(spec), &s); err != nil {
		return err
	}
	c := generate(s.Workload, s.Seed, s.Warm, s.Timed)
	warm, bodies := joinBodies(c.Lines[:c.Warm]), joinBodies(c.Timed())
	snd := newSender(s.URL)
	fmt.Printf("warm %d\n", snd.warm(warm))

	var startNano int64
	if _, err := fmt.Fscanf(bufio.NewReader(os.Stdin), "go %d\n", &startNano); err != nil {
		return fmt.Errorf("waiting for the start time: %w", err)
	}
	// A wall-clock time: the two processes share no monotonic clock.
	return json.NewEncoder(os.Stdout).Encode(snd.timed(bodies, s.Rate, time.Unix(0, startNano)))
}

// sleepUntil blocks until t with nanosleep(2). time.Sleep rounds a wait
// shorter than a millisecond up to one (the runtime parks in epoll_wait),
// which at these POST intervals would make the generator late on its own
// account; nanosleep overshoots by about 0.1 ms whatever the wait.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

func joinBodies(lines []string) []string {
	bodies := make([]string, 0, (len(lines)+postLines-1)/postLines)
	for i := 0; i < len(lines); i += postLines {
		bodies = append(bodies, strings.Join(lines[i:min(i+postLines, len(lines))], "\n"))
	}
	return bodies
}

// loadgen is the parent's handle on a running child.
type loadgen struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

// startLoadgen starts the child and waits until it has POSTed the warm-up
// prefix, returning how many warm-up lines were refused.
func startLoadgen(s loadgenSpec) (*loadgen, int, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	spec, _ := json.Marshal(s)
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), loadgenEnv+"="+string(spec))
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	g := &loadgen{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<20)}
	var refused int
	if _, err := fmt.Fscanf(g.out, "warm %d\n", &refused); err != nil {
		g.stop()
		return nil, 0, fmt.Errorf("load generator warm-up: %w", err)
	}
	return g, refused, nil
}

// run tells the child when to start the timed lines and waits for its
// result and its exit.
func (g *loadgen) run(start time.Time) (*loadgenResult, error) {
	if _, err := fmt.Fprintf(g.in, "go %d\n", start.UnixNano()); err != nil {
		g.stop()
		return nil, err
	}
	var res loadgenResult
	if err := json.NewDecoder(g.out).Decode(&res); err != nil {
		g.stop()
		return nil, fmt.Errorf("load generator result: %w", err)
	}
	g.in.Close()
	return &res, g.cmd.Wait()
}

// stop kills a child that is not going to finish on its own, and waits
// until it has ended.
func (g *loadgen) stop() {
	g.in.Close()
	g.cmd.Process.Kill()
	g.cmd.Wait()
}
