package corpus

import (
	"testing"
)

// benchRecords is a real journal's record mix: per item one admit, one
// output per model and one commit.
func benchRecords(b *testing.B) ([]byte, []record) {
	return journalImage(b, 10, []int{0, 3, 7})
}

// BenchmarkJournalAppend times writeRecord, one record per op: frame
// encoding into the reused buffer plus the file write, as the corpus
// does under its mutex on every admit, output and commit.
func BenchmarkJournalAppend(b *testing.B) {
	data, recs := benchRecords(b)
	c := mustOpen(b, tempJournal(b), Options{})
	defer c.Close()
	b.SetBytes(int64(len(data) / len(recs)))
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		c.mu.Lock()
		err := c.writeRecord(&recs[i%len(recs)])
		c.mu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
		i++
	}
}

// BenchmarkJournalReplay times parseJournal over a whole journal image,
// reporting the cost per record beside the per-image op.
func BenchmarkJournalReplay(b *testing.B) {
	data, recs := benchRecords(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		n := 0
		parseJournal(data, func(*record) error { n++; return nil })
		if n != len(recs) {
			b.Fatalf("replayed %d records, want %d", n, len(recs))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
}
