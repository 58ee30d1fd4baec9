// Command alerts queries and maintains a LogSynergy alert store (the
// durable, CRC-framed history written by the detection pipeline).
//
// Usage:
//
//	alerts -store alerts.log list [-system SystemB] [-min-score 0.9] [-open] [-limit 20]
//	alerts -store alerts.log ack -id 17
//	alerts -store alerts.log compact [-drop-acked]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"logsynergy/internal/alertstore"
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

// run is the whole command. The subcommand and its flags are checked
// before the store is opened, and a -store path that does not exist is
// refused, so a typo never creates a store file.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("alerts", flag.ContinueOnError)
	fs.SetOutput(stderr)
	storePath := fs.String("store", "alerts.log", "alert store path")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	args = fs.Args()
	if len(args) == 0 {
		return usageError{errors.New("usage: alerts -store <path> <list|ack|compact> [flags]")}
	}

	cmd := flag.NewFlagSet(args[0], flag.ContinueOnError)
	cmd.SetOutput(stderr)
	var do func(s *alertstore.Store) error
	switch args[0] {
	case "list":
		system := cmd.String("system", "", "filter by system")
		minScore := cmd.Float64("min-score", 0, "minimum score")
		open := cmd.Bool("open", false, "unacknowledged only")
		limit := cmd.Int("limit", 0, "max results")
		do = func(s *alertstore.Store) error {
			recs := s.Find(alertstore.Query{
				System:             *system,
				MinScore:           *minScore,
				UnacknowledgedOnly: *open,
				Limit:              *limit,
			})
			for _, r := range recs {
				status := "open"
				if r.Acknowledged {
					status = "acked"
				}
				fmt.Fprintf(stdout, "#%d %s score=%.3f %s [%s]\n",
					r.ID, r.Report.System, r.Report.Score,
					r.Report.Timestamp.Format("2006-01-02T15:04:05"), status)
			}
			fmt.Fprintf(stderr, "%d alerts\n", len(recs))
			return nil
		}
	case "ack":
		id := cmd.Uint64("id", 0, "alert id")
		do = func(s *alertstore.Store) error {
			ok, err := s.Acknowledge(*id)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("no alert #%d", *id)
			}
			fmt.Fprintf(stdout, "acknowledged #%d\n", *id)
			return nil
		}
	case "compact":
		dropAcked := cmd.Bool("drop-acked", false, "drop acknowledged alerts")
		do = func(s *alertstore.Store) error {
			var keep func(alertstore.Record) bool
			if *dropAcked {
				keep = func(r alertstore.Record) bool { return !r.Acknowledged }
			}
			if err := s.Compact(keep); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "compacted: %d alerts retained\n", s.Len())
			return nil
		}
	default:
		return usageError{fmt.Errorf("unknown command %q", args[0])}
	}
	if err := cmd.Parse(args[1:]); err != nil {
		return usageError{err}
	}

	// alertstore.Open creates a missing file, which is right for the
	// writers and wrong here: a mistyped path would read as an empty history.
	if _, err := os.Stat(*storePath); errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("no alert store at %s", *storePath)
	}
	s, err := alertstore.Open(*storePath)
	if err != nil {
		return err
	}
	return errors.Join(do(s), s.Close())
}
