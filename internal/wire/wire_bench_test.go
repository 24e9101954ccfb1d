package wire

import "testing"

// Microbenchmarks for the encode/decode hot path (every WAL record,
// consensus message, and block frame goes through these). Alloc counts
// are the point: the pooled-writer path must stay allocation-free in
// steady state.

// benchBatch is a decision-record-shaped payload: a seq plus a batch of
// envelopes.
func benchBatch() [][]byte {
	batch := make([][]byte, 10)
	for i := range batch {
		batch[i] = make([]byte, 64)
	}
	return batch
}

func encodeDecisionRecord(w *Writer, seq int64, batch [][]byte) {
	w.PutInt64(seq)
	w.PutBytesSlice(batch)
}

// BenchmarkWriterEncodeFresh allocates a new writer per record — the
// pre-pooling behavior, kept as the baseline.
func BenchmarkWriterEncodeFresh(b *testing.B) {
	batch := benchBatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := NewWriter(64)
		encodeDecisionRecord(w, int64(i), batch)
		if w.Len() == 0 {
			b.Fatal("empty encoding")
		}
	}
}

// BenchmarkWriterEncodePooled uses the Get/PutWriter pool, the path the
// decision log and block store run in production.
func BenchmarkWriterEncodePooled(b *testing.B) {
	batch := benchBatch()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := GetWriter(1024)
		encodeDecisionRecord(w, int64(i), batch)
		if w.Len() == 0 {
			b.Fatal("empty encoding")
		}
		PutWriter(w)
	}
}

// BenchmarkReaderDecode decodes the same record shape back out: one
// allocation, the slice of views.
func BenchmarkReaderDecode(b *testing.B) {
	w := NewWriter(1024)
	encodeDecisionRecord(w, 42, benchBatch())
	raw := w.Bytes()
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		r := NewReader(raw)
		seq := r.Int64()
		batch := r.BytesSlice()
		if err := r.Finish(); err != nil || seq != 42 || len(batch) != 10 {
			b.Fatalf("decode: seq=%d len=%d err=%v", seq, len(batch), r.Err())
		}
	}
}
