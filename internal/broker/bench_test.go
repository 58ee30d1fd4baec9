package broker

import (
	"testing"

	"logsynergy/internal/obs"
)

// benchLine is a representative production log line (~70 bytes).
var benchLine = "2023-09-01T12:00:00Z INFO service=api request GET /api/v1/items status=200"

func benchBroker(b *testing.B, mutate func(*Config)) *Broker {
	b.Helper()
	cfg := Config{Dir: b.TempDir(), Fsync: FsyncNever, MaxBacklogBytes: -1, Metrics: obs.NewRegistry()}
	if mutate != nil {
		mutate(&cfg)
	}
	bk, err := Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { bk.Close() })
	return bk
}

func BenchmarkAppend(b *testing.B) {
	bk := benchBroker(b, nil)
	b.SetBytes(int64(len(benchLine)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bk.Append(benchLine); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendFsyncInterval(b *testing.B) {
	bk := benchBroker(b, func(c *Config) { c.Fsync = FsyncInterval })
	b.SetBytes(int64(len(benchLine)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bk.Append(benchLine); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendBatch100(b *testing.B) {
	bk := benchBroker(b, nil)
	batch := make([]string, 100)
	for i := range batch {
		batch[i] = benchLine
	}
	b.SetBytes(int64(len(benchLine) * len(batch)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bk.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConsume(b *testing.B) {
	bk := benchBroker(b, nil)
	batch := make([]string, 1000)
	for i := range batch {
		batch[i] = benchLine
	}
	for appended := 0; appended < b.N; appended += len(batch) {
		if _, _, err := bk.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
	c, err := bk.Consumer("bench")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.SetBytes(int64(len(benchLine)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Next(); !ok {
			b.Fatalf("consumer dry at %d: %v", i, c.Err())
		}
	}
}
