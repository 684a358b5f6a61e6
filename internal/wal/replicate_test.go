package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"testing"
)

// TestReadBatchFromLSN covers the replication read path: batches are
// bounded, contiguous from after+1, report whether records remain, and
// an `after` below the compaction horizon surfaces ErrCompacted.
func TestReadBatchFromLSN(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := fillSegments(t, w, 10)

	// Bounded batch from genesis: the first max records, more pending.
	batch, more, err := w.ReadBatchFromLSN(0, 4)
	if err != nil {
		t.Fatalf("ReadBatchFromLSN(0, 4): %v", err)
	}
	if len(batch) != 4 || !more {
		t.Fatalf("got %d records, more=%v; want 4 records, more=true", len(batch), more)
	}
	for i, rec := range batch {
		if string(rec) != string(recs[i]) {
			t.Fatalf("batch[%d] = %q, want %q", i, rec, recs[i])
		}
	}

	// Resume mid-journal with headroom: the rest, nothing pending.
	batch, more, err = w.ReadBatchFromLSN(4, 100)
	if err != nil {
		t.Fatalf("ReadBatchFromLSN(4, 100): %v", err)
	}
	if len(batch) != 6 || more {
		t.Fatalf("got %d records, more=%v; want 6 records, more=false", len(batch), more)
	}
	if string(batch[0]) != string(recs[4]) {
		t.Fatalf("batch[0] = %q, want %q (LSN contiguity from after+1)", batch[0], recs[4])
	}

	// Caught up: empty batch, no error.
	batch, more, err = w.ReadBatchFromLSN(10, 4)
	if err != nil || len(batch) != 0 || more {
		t.Fatalf("caught-up read = %d records, more=%v, err=%v; want empty", len(batch), more, err)
	}
}

func TestReadBatchFromLSNCompacted(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Policy: SyncNever, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fillSegments(t, w, 8)
	if _, err := w.Checkpoint([]byte("state")); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	var tail [][]byte
	for i := 0; i < 3; i++ {
		rec := []byte(fmt.Sprintf("tail-%d", i))
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		tail = append(tail, rec)
	}

	// Below the horizon: the records were compacted into the snapshot.
	if _, _, err := w.ReadBatchFromLSN(0, 100); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read below compaction horizon = %v, want ErrCompacted", err)
	}
	// At the snapshot boundary: exactly the live tail.
	batch, more, err := w.ReadBatchFromLSN(8, 100)
	if err != nil {
		t.Fatalf("ReadBatchFromLSN(8, 100): %v", err)
	}
	if len(batch) != len(tail) || more {
		t.Fatalf("got %d records, more=%v; want %d, more=false", len(batch), more, len(tail))
	}
	for i := range tail {
		if string(batch[i]) != string(tail[i]) {
			t.Fatalf("tail[%d] = %q, want %q", i, batch[i], tail[i])
		}
	}
}

// readAll reads every live record after `after` in batches of max,
// checking that `more` is false only on the final batch.
func readAll(t *testing.T, w *WAL, after uint64, max int) []string {
	t.Helper()
	var got []string
	for {
		batch, more, err := w.ReadBatchFromLSN(after, max)
		if err != nil {
			t.Fatalf("ReadBatchFromLSN(%d, %d): %v", after, max, err)
		}
		for _, rec := range batch {
			got = append(got, string(rec))
		}
		after += uint64(len(batch))
		if !more {
			return got
		}
		if len(batch) == 0 {
			t.Fatalf("ReadBatchFromLSN(%d, %d): empty batch with more=true", after, max)
		}
	}
}

func wantRecords(t *testing.T, got []string, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != string(want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestReadBatchFromLSNAcrossRotation reads batches that cross segment
// boundaries: the index locates records in several segments, and each
// run of same-segment records is read back in one piece.
func TestReadBatchFromLSNAcrossRotation(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Policy: SyncNever, SegmentSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := fillSegments(t, w, 20)
	if w.Segments() < 5 {
		t.Fatalf("Segments() = %d, want a tail spread over several segments", w.Segments())
	}
	batch, more, err := w.ReadBatchFromLSN(3, 10)
	if err != nil || len(batch) != 10 || !more {
		t.Fatalf("ReadBatchFromLSN(3, 10) = %d records, more=%v, err=%v; want 10, more=true", len(batch), more, err)
	}
	for i, rec := range batch {
		if string(rec) != string(recs[3+i]) {
			t.Fatalf("batch[%d] = %q, want %q", i, rec, recs[3+i])
		}
	}
	for _, max := range []int{1, 3, 7, 100} {
		wantRecords(t, readAll(t, w, 0, max), recs)
	}
}

// TestReadBatchFromLSNAfterTornTail reopens a journal whose final
// record was torn: the index is rebuilt from Open's scan, the torn
// record is absent, and appends after the truncation land where the
// index says they do.
func TestReadBatchFromLSNAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	recs := fillSegments(t, w, 12)
	w.Close()
	// A header promising more payload than the file holds: the crash
	// hit mid-append.
	f, err := os.OpenFile(lastSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var hdr [recHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:4], 64)
	f.Write(append(hdr[:], "torn"...))
	f.Close()

	w2, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if !w2.Truncated() {
		t.Fatal("torn tail not reported via Truncated()")
	}
	wantRecords(t, readAll(t, w2, 0, 5), recs)
	post := []byte("post-recovery")
	if err := w2.Append(post); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, readAll(t, w2, 0, 5), append(recs, post))
}

// TestReadBatchFromLSNAfterCheckpoints resets the index at each
// checkpoint and reads the new tail back by LSN, in-process and after
// a reopen rebuilds the index on top of the snapshot.
func TestReadBatchFromLSNAfterCheckpoints(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	fillSegments(t, w, 5)
	var tail [][]byte
	for cycle := 0; cycle < 2; cycle++ {
		if _, err := w.Checkpoint([]byte("state")); err != nil {
			t.Fatal(err)
		}
		tail = nil
		for i := 0; i < 4; i++ {
			rec := []byte(fmt.Sprintf("cycle-%d-%d", cycle, i))
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
			tail = append(tail, rec)
		}
	}
	// Two checkpoints: LSN 5 and LSN 9; the live tail is LSN 10..13.
	if _, _, err := w.ReadBatchFromLSN(8, 10); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read below second checkpoint = %v, want ErrCompacted", err)
	}
	wantRecords(t, readAll(t, w, 9, 3), tail)
	w.Close()

	w2, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if n := w2.TailRecords(); n != len(tail) {
		t.Fatalf("TailRecords() after reopen = %d, want %d", n, len(tail))
	}
	wantRecords(t, readAll(t, w2, 9, 3), tail)
}

// TestReadBatchFromLSNAfterInstallSnapshot is the follower bootstrap:
// InstallSnapshot drops every local record and aligns LSNs with the
// leader, and replicated appends after it read back by leader LSN.
func TestReadBatchFromLSNAfterInstallSnapshot(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fillSegments(t, w, 6)
	if err := w.InstallSnapshot([]byte("leader state"), 100); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	recs := fillSegments(t, w, 3)
	if lsn := w.LSN(); lsn != 103 {
		t.Fatalf("LSN() = %d, want 103", lsn)
	}
	if _, _, err := w.ReadBatchFromLSN(6, 10); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read of discarded local records = %v, want ErrCompacted", err)
	}
	wantRecords(t, readAll(t, w, 100, 2), recs)
	w.Close()

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	wantRecords(t, readAll(t, w2, 100, 2), recs)
}

// TestReadBatchFromLSNShipsOnlyDurable pins the ship-only-durable
// step: under SyncBatch, records not yet fsynced come back only after
// a counted fsync; under SyncAlways nothing is pending, so reads (and
// replays) issue no fsync at all.
func TestReadBatchFromLSNShipsOnlyDurable(t *testing.T) {
	t.Run("batch", func(t *testing.T) {
		w, err := Open(t.TempDir(), Options{Policy: SyncBatch, BatchSize: 1000})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		recs := fillSegments(t, w, 3)
		before := w.Syncs()
		wantRecords(t, readAll(t, w, 0, 10), recs)
		if got := w.Syncs(); got != before+1 {
			t.Fatalf("Syncs() = %d after reading unsynced records, want %d", got, before+1)
		}
		wantRecords(t, readAll(t, w, 0, 10), recs)
		if got := w.Syncs(); got != before+1 {
			t.Fatalf("Syncs() = %d after re-reading synced records, want %d", got, before+1)
		}
	})
	t.Run("always", func(t *testing.T) {
		w, err := Open(t.TempDir(), Options{Policy: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		recs := fillSegments(t, w, 3)
		before := w.Syncs()
		wantRecords(t, readAll(t, w, 0, 10), recs)
		replayAll(t, w)
		if got := w.Syncs(); got != before {
			t.Fatalf("Syncs() = %d after reads under SyncAlways, want %d", got, before)
		}
	})
}

// TestReadBatchFromLSNCorruptionIsError flips a payload byte of an
// appended record on disk, inside the last segment. The read that
// would ship it returns ErrCorrupt instead of a short "caught up"
// batch; records before it still read.
func TestReadBatchFromLSNCorruptionIsError(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := fillSegments(t, w, 3)

	path := lastSegment(t, dir)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	second := int64(len(segMagic)) + recHeaderLen + int64(len(recs[0]))
	b[second+recHeaderLen] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := w.ReadBatchFromLSN(0, 10); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read over a corrupted record = %v, want ErrCorrupt", err)
	}
	if _, _, err := w.ReadBatchFromLSN(1, 10); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("read starting at a corrupted record = %v, want ErrCorrupt", err)
	}
	batch, more, err := w.ReadBatchFromLSN(0, 1)
	if err != nil || len(batch) != 1 || !more || string(batch[0]) != string(recs[0]) {
		t.Fatalf("read before the corrupted record = %q, more=%v, err=%v; want [%q], more=true", batch, more, err, recs[0])
	}
}

// BenchmarkReadBatchFromLSNLiveTail reads the newest record of a live
// tail — the per-append replication read. Its per-op cost should not
// depend on how many records the tail holds behind it.
func BenchmarkReadBatchFromLSNLiveTail(b *testing.B) {
	for _, n := range []int{1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("tail=%d", n), func(b *testing.B) {
			w, err := Open(b.TempDir(), Options{Policy: SyncNever})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			rec := bytes.Repeat([]byte("r"), 200)
			for i := 0; i < n; i++ {
				if err := w.Append(rec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch, _, err := w.ReadBatchFromLSN(uint64(n-1), 256)
				if err != nil || len(batch) != 1 {
					b.Fatalf("ReadBatchFromLSN = %d records, err=%v; want 1", len(batch), err)
				}
			}
		})
	}
}
