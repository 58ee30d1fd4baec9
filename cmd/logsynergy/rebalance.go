package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"logsynergy/internal/httpapi"
	"logsynergy/internal/shard"
)

// runRebalance asks a RUNNING `logsynergy serve -shards N` process (or a
// fleet's front router), through its -addr HTTP surface, to move to M
// partitions in place — more or fewer — carrying each relocated key's
// window tail and template groups to its new partition (pattern-library
// verdicts stay behind; the new partition's library fills from its own
// misses with the same scores):
//
//	logsynergy rebalance -addr 127.0.0.1:9600 -to 4
//
// Traffic may keep flowing or not; the protocol is the same. The command
// never opens the directory itself: the serving process holds the
// detector, interpreter and pipeline settings the move depends on. The
// call returns when the cutover has completed and the fleet is serving
// the new layout; an interrupted cutover is journaled: a `serve` process
// finishes it when it restarts at the new -shards (and answers 409 to
// further rebalances until then), a fleet router when the command is
// repeated. For a rollback, stop serve and `cp -r` the broker directory
// first.
func runRebalance(args []string) error {
	fs := flag.NewFlagSet("rebalance", flag.ExitOnError)
	to := fs.Int("to", 0, "target partition count")
	addr := fs.String("addr", "", "HTTP address (host:port) of the serving fleet")
	timeout := fs.Duration("timeout", 10*time.Minute, "how long to wait for the cutover to complete")
	quiet := fs.Bool("quiet", false, "suppress the summary line")
	fs.Parse(args)

	if *addr == "" {
		return fmt.Errorf("rebalance needs a serving fleet: pass -addr host:port of a running `logsynergy serve -shards N` process")
	}
	if *to <= 0 {
		return fmt.Errorf("rebalance requires a positive -to partition count")
	}
	rep, err := liveRebalanceRequest(*addr, *to, *timeout)
	if err != nil {
		return err
	}
	printRebalanceReport(rep, *quiet)
	return nil
}

// liveRebalanceRequest asks the serving fleet at addr to move to `to`
// partitions and waits for the cutover to complete, polling the
// versioned status endpoint for progress while the call is in flight.
func liveRebalanceRequest(addr string, to int, timeout time.Duration) (*shard.RebalanceReport, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil {
		return nil, fmt.Errorf("rebalance -addr %q: %w", addr, err)
	}
	u.Path = httpapi.Prefix + "/rebalance"
	u.RawQuery = "to=" + strconv.Itoa(to)
	client := &http.Client{Timeout: timeout}

	done := make(chan struct{})
	go pollRebalanceProgress(addr, done)
	resp, err := client.Post(u.String(), "text/plain", nil)
	close(done)
	if err != nil {
		return nil, fmt.Errorf("reaching the serving fleet: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if d := httpapi.DecodeDetail(body); d != nil {
			return nil, fmt.Errorf("serving fleet refused the rebalance (%s) [%s]: %s", resp.Status, d.Code, d.Message)
		}
		return nil, fmt.Errorf("serving fleet refused the rebalance (%s): %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var rep shard.RebalanceReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		return nil, fmt.Errorf("parsing rebalance report: %w", err)
	}
	return &rep, nil
}

// pollRebalanceProgress GETs /admin/v1/status every half second until
// done closes, printing the live-cutover phase when it changes. The
// status shapes of serve mode, a fleet node, and the front router all
// decode into the common subset below.
func pollRebalanceProgress(addr string, done <-chan struct{}) {
	var last string
	client := &http.Client{Timeout: 2 * time.Second}
	t := time.NewTicker(500 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
		}
		resp, err := client.Get(addr + httpapi.Prefix + "/status")
		if err != nil {
			continue
		}
		var st struct {
			Cutover *struct {
				From      int `json:"from"`
				To        int `json:"to"`
				Pending   int `json:"pending"`
				Committed int `json:"committed"`
			} `json:"cutover"`
		}
		err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st)
		resp.Body.Close()
		if err != nil || st.Cutover == nil {
			continue
		}
		c := st.Cutover
		line := fmt.Sprintf("cutover %d -> %d: moves %d pending, %d committed", c.From, c.To, c.Pending, c.Committed)
		if line != last {
			fmt.Println(line)
			last = line
		}
	}
}

// printRebalanceReport renders the summary line.
func printRebalanceReport(rep *shard.RebalanceReport, quiet bool) {
	if quiet {
		return
	}
	if rep.AlreadyBalanced {
		fmt.Printf("layout in %s already at %d partitions; nothing moved\n", rep.Dir, rep.To)
		return
	}
	perKey := "-"
	if rep.MovedKeys > 0 {
		perKey = fmt.Sprintf("%.0fµs/key", float64(rep.Duration.Microseconds())/float64(rep.MovedKeys))
	}
	fmt.Printf("rebalanced %d -> %d partitions in %s: moved %d keys (%d tail event ids) in %v (%s)\n",
		rep.From, rep.To, rep.Dir, rep.MovedKeys, rep.MovedLines, rep.Duration, perKey)
}
