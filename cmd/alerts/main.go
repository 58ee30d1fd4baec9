// Command alerts lists and acknowledges the alerts a LogSynergy runtime
// raised. It reads them from the commit logs under a serve root (serve's
// -broker-dir: DIR/p<i>/commits, retired partition directories included)
// and keeps acknowledgements in one framed file beside them,
// DIR/alert-acks. The history is what the logs' retention keeps; serve
// -no-retention keeps all of it.
//
// Usage:
//
//	alerts -root DIR list [-system SystemB] [-min-score 0.9] [-open] [-limit 20]
//	alerts -root DIR ack -id p3-118-0
//
// An alert's id is its partition, commit-log offset and index within the
// commit record.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"logsynergy/internal/framelog"
	"logsynergy/internal/shard"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return
	}
	fmt.Fprintf(os.Stderr, "alerts: %v\n", err)
	var usage usageError
	if errors.As(err, &usage) {
		os.Exit(2)
	}
	os.Exit(1)
}

// usageError is a bad invocation (exit 2), as opposed to a failure (exit 1).
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// errStop ends a read of the commit logs early.
var errStop = errors.New("stop")

// run is the whole command. The subcommand and its flags are checked
// before anything is read; list changes nothing on disk, and ack writes
// only the ack file, once the id names an alert.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("alerts", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "", "serve root (-broker-dir) whose partitions' commit logs hold the alerts")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	args = fs.Args()
	if *root == "" || len(args) == 0 {
		return usageError{errors.New("usage: alerts -root DIR <list|ack> [flags]")}
	}
	acksPath := filepath.Join(*root, ackFile)

	cmd := flag.NewFlagSet(args[0], flag.ContinueOnError)
	cmd.SetOutput(stderr)
	var each func(a shard.Alert, acked bool) error
	var finish func(acked map[string]bool, valid int64) error
	switch args[0] {
	case "list":
		system := cmd.String("system", "", "filter by system")
		minScore := cmd.Float64("min-score", 0, "minimum score")
		open := cmd.Bool("open", false, "unacknowledged only")
		limit := cmd.Int("limit", 0, "max results")
		n := 0
		each = func(a shard.Alert, acked bool) error {
			r := a.Report
			if (*system != "" && r.System != *system) || r.Score < *minScore || (*open && acked) {
				return nil
			}
			status := "open"
			if acked {
				status = "acked"
			}
			fmt.Fprintf(stdout, "%s %s score=%.3f %s [%s]\n",
				a.ID, r.System, r.Score, r.Timestamp.Format("2006-01-02T15:04:05"), status)
			if n++; n == *limit {
				return errStop
			}
			return nil
		}
		finish = func(map[string]bool, int64) error {
			fmt.Fprintf(stderr, "%d alerts\n", n)
			return nil
		}
	case "ack":
		id := cmd.String("id", "", "alert id, as list prints it (p<partition>-<offset>-<index>)")
		var found *ack
		each = func(a shard.Alert, acked bool) error {
			if a.ID != *id {
				return nil
			}
			found = &ack{ID: a.ID, Timestamp: a.Report.Timestamp}
			return errStop
		}
		finish = func(acked map[string]bool, valid int64) error {
			if found == nil {
				return fmt.Errorf("no alert %s under %s", *id, *root)
			}
			if !acked[found.key()] {
				if err := appendAck(acksPath, valid, *found); err != nil {
					return err
				}
			}
			fmt.Fprintf(stdout, "acknowledged %s\n", *id)
			return nil
		}
	default:
		return usageError{fmt.Errorf("unknown command %q", args[0])}
	}
	if err := cmd.Parse(args[1:]); err != nil {
		return usageError{err}
	}

	acked, valid, err := readAcks(acksPath)
	if err != nil {
		return err
	}
	err = shard.ReadAlerts(*root, func(a shard.Alert) error {
		return each(a, acked[ack{ID: a.ID, Timestamp: a.Report.Timestamp}.key()])
	})
	if err != nil && !errors.Is(err, errStop) {
		return err
	}
	return finish(acked, valid)
}

// ackFile names the root's acknowledgement log: framelog frames, one
// JSON-encoded ack each.
const ackFile = "alert-acks"

// maxAck bounds one ack frame. Far below the length a text file's first
// four bytes spell, it makes a file that is no ack log — a model bundle,
// say — fail as corrupt at byte 0.
const maxAck = 4 << 10

// ack acknowledges one alert. The timestamp tells it apart from a later
// alert at the same log position: one committed after a power cut took
// the commit log's unsynced tail.
type ack struct {
	ID        string    `json:"id"`
	Timestamp time.Time `json:"timestamp"`
}

func (a ack) key() string { return a.ID + " " + a.Timestamp.UTC().Format(time.RFC3339Nano) }

// readAcks loads the ack file at path without changing it: the acked
// keys, and the byte length of its whole frames — a torn tail past them,
// an ack cut short, is left for the next ack to cut. A missing file holds
// no acks; a corrupt frame is refused by byte offset.
func readAcks(path string) (map[string]bool, int64, error) {
	acked := map[string]bool{}
	_, valid, stop, err := framelog.Scan(path, maxAck, func(p []byte) {
		var a ack
		if json.Unmarshal(p, &a) == nil {
			acked[a.key()] = true
		}
	})
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return nil, 0, err
	case errors.Is(stop, framelog.ErrCorrupt):
		return nil, 0, fmt.Errorf("%s is not an ack file, or is damaged, at byte %d: %w", path, valid, stop)
	}
	return acked, valid, nil
}

// appendAck writes a as the frame after the ack file's first valid bytes,
// cutting off a torn tail there first so the frame is not buried behind
// it, and syncs the file.
func appendAck(path string, valid int64, a ack) error {
	payload, err := json.Marshal(a)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err = f.Truncate(valid); err == nil {
		if _, err = f.WriteAt(framelog.Append(nil, payload), valid); err == nil {
			err = f.Sync()
		}
	}
	return errors.Join(err, f.Close())
}
