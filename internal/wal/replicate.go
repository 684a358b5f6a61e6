package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"
)

// ErrCompacted reports an LSN-ranged read that starts below the
// journal's checkpoint boundary: the records were truncated away and
// only the snapshot covers them. A replication leader seeing this must
// ship the snapshot itself (InstallSnapshot on the follower) and then
// stream the tail.
var ErrCompacted = errors.New("wal: requested records compacted into the checkpoint")

// ReadBatchFromLSN copies up to max records with LSN strictly greater
// than `after` out of the journal — oldest first, contiguous, so the
// i-th record returned has LSN after+1+i — and reports whether more
// records remain past the batch. It is the replication read path: a
// leader streams a follower everything past the follower's durable
// high-water mark, and the same call serves live streaming, restart
// catch-up and anti-entropy backfill — they differ only in how far
// behind `after` is.
//
// The read is an indexed one: the live-tail position index locates
// exactly the requested records, which are read with one ReadAt per
// run of records in the same segment, and each record's length and
// CRC-32 are checked before it is shipped. Its cost is that of the
// batch, not of the tail behind it. A record that fails the check
// returns ErrCorrupt rather than a short batch, so on-disk corruption
// never looks like "caught up" to the streamer. Corruption of a record
// that was already shipped is not re-detected here; it surfaces at the
// next Open or Replay, which scan every live segment.
//
// Only durable records are shipped: pending appends are fsynced first
// (see durableLocked), so a follower never holds a record the leader
// could lose in a crash.
//
// The copies are taken under one lock acquisition and the lock is
// released before the caller touches them: this is the replication
// send path, and network writes must never happen under the journal
// lock (a stalled follower connection would otherwise block every
// concurrent Append). The checkpoint boundary is pinned by the same
// acquisition, so a concurrent Checkpoint cannot shift the LSN
// numbering mid-read.
//
// When `after` precedes the checkpoint boundary the requested records
// no longer exist as records and ErrCompacted is returned; the caller
// bootstraps the follower from the snapshot instead (LoadCheckpoint +
// InstallSnapshot) and retries from the snapshot LSN.
func (w *WAL) ReadBatchFromLSN(after uint64, max int) (recs [][]byte, more bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, false, ErrClosed
	}
	durable, err := w.durableLocked()
	if err != nil {
		return nil, false, err
	}
	base := w.lsn - uint64(len(w.tail))
	if after < base {
		return nil, false, fmt.Errorf("%w: tail starts after LSN %d, requested after %d", ErrCompacted, base, after)
	}
	if after >= durable {
		return nil, false, nil
	}
	lo, hi := int(after-base), int(durable-base)
	if hi-lo > max {
		hi, more = lo+max, true
	}
	recs, err = w.readTailLocked(w.tail[lo:hi], after+1)
	if err != nil {
		return nil, false, err
	}
	return recs, more, nil
}

// readTailLocked reads the records at pos (the first has LSN first)
// with one ReadAt per run of records in the same segment, checking
// each record's framing against the index and its CRC-32. The returned
// payloads share one buffer per run, each capped at its own length.
// Callers hold w.mu.
func (w *WAL) readTailLocked(pos []recPos, first uint64) ([][]byte, error) {
	recs := make([][]byte, 0, len(pos))
	for len(pos) > 0 {
		run := 1
		for run < len(pos) && pos[run].seg == pos[0].seg {
			run++
		}
		last := pos[run-1]
		buf := make([]byte, last.off+recHeaderLen+int64(last.length)-pos[0].off)
		if err := w.readAtLocked(pos[0].seg, buf, pos[0].off); err != nil {
			return nil, err
		}
		for _, p := range pos[:run] {
			off := p.off - pos[0].off
			end := off + recHeaderLen + int64(p.length)
			hdr, body := buf[off:off+recHeaderLen], buf[off+recHeaderLen:end:end]
			if int(binary.BigEndian.Uint32(hdr)) != p.length {
				return nil, corruptAt(p, first+uint64(len(recs)), "record length changed")
			}
			if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(hdr[4:]) {
				return nil, corruptAt(p, first+uint64(len(recs)), "checksum mismatch")
			}
			recs = append(recs, body)
		}
		pos = pos[run:]
	}
	return recs, nil
}

// corruptAt reports a shipped record that failed its read-back check.
func corruptAt(p recPos, lsn uint64, what string) error {
	return fmt.Errorf("%w: "+segFmt+": %s at offset %d (LSN %d)", ErrCorrupt, p.seg, what, p.off, lsn)
}

// readAtLocked fills buf from segment seg at off: the current segment
// through the append handle (ReadAt does not move its write offset),
// an older one through a short-lived handle. Callers hold w.mu.
func (w *WAL) readAtLocked(seg int, buf []byte, off int64) error {
	f := w.f
	if seg != w.segIndex {
		var err error
		if f, err = os.Open(w.segPath(seg)); err != nil {
			return fmt.Errorf("wal: opening segment for read: %w", err)
		}
		defer f.Close()
	}
	if _, err := f.ReadAt(buf, off); err != nil {
		if errors.Is(err, io.EOF) {
			return fmt.Errorf("%w: "+segFmt+": short read at offset %d", ErrCorrupt, seg, off)
		}
		return fmt.Errorf("wal: reading segment: %w", err)
	}
	return nil
}

// InstallSnapshot makes state the journal's checkpoint at the given
// (leader-assigned) LSN, discarding every local record — the follower
// bootstrap path when its high-water mark fell below the leader's
// compaction horizon. After it returns, the journal's LSN numbering is
// aligned with the leader's: the next appended record gets lsn+1, and
// a recovery over this journal restores the snapshot and replays the
// replicated tail exactly as the leader itself would.
func (w *WAL) InstallSnapshot(state []byte, lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.ioErr != nil {
		return w.ioErr
	}
	if w.syncErr != nil {
		return w.syncErr
	}
	w.waitFlush()
	if w.closed {
		return ErrClosed
	}
	if err := w.fsyncLocked(); err != nil {
		return fmt.Errorf("wal: snapshot-install fsync: %w", err)
	}
	// Rotate so the installed boundary is a segment boundary, exactly
	// like a locally taken checkpoint.
	if err := w.f.Close(); err != nil {
		w.setErrLocked(fmt.Errorf("wal: closing segment for snapshot install: %w", err))
		return w.ioErr
	}
	if err := w.newSegment(w.segIndex + 1); err != nil {
		w.setErrLocked(err)
		return w.ioErr
	}
	walRotations.Inc()

	ck := &Checkpoint{
		LSN:     lsn,
		TailSeg: w.segIndex,
		Taken:   time.Now(),
		payload: append([]byte(nil), state...),
	}
	if err := w.writeCheckpointFile(ck); err != nil {
		return err
	}
	prev := w.ckpt
	w.ckpt = ck
	// The local records are all below the installed boundary now; the
	// truncation below removes them and the counters reset with them.
	w.lsn = lsn
	w.records = 0
	w.tail = nil
	w.sinceSync = 0
	walCheckpoints.Inc()
	w.pruneCheckpoints(ck, prev)
	return w.truncateCoveredLocked(ck.TailSeg)
}
