package corpus

import (
	"fmt"
	"os"

	"ams/internal/zoo"
)

// The snapshot's wire format: the same magic+version header shape as the
// journal (and internal/oracle's store blob), followed by journal frames
// (journal.go), entry by entry in sequence order: the admit record, the
// item's persisted outputs in model order, and the commit record when
// the item committed. Loading a snapshot is therefore replaying it.
var snapMagic = [4]byte{'A', 'M', 'S', 'S'}

const snapVersion = 2

// snapPath is where the corpus's snapshot lives.
func (c *Corpus) snapPath() string { return c.path + ".snap" }

// Snapshot compacts the corpus: it merges the previous snapshot, the
// journal, and the in-memory state into one file at path+".snap"
// (written atomically via rename), then truncates the journal to its
// header. Outputs of evicted items are carried over from the previous
// snapshot or journal, so no persisted output is ever lost, no matter
// how many snapshot generations pass.
func (c *Corpus) Snapshot() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.err != nil {
		return c.err
	}
	return c.snapshotLocked()
}

func (c *Corpus) snapshotLocked() error {
	// Persisted outputs not in memory (evicted items): recover them from
	// the previous snapshot, then overlay the journal — later records
	// win, matching replay order. disk[seq][m] is model m's output.
	disk := make(map[int][]diskMemo)
	keep := func(r *record) error {
		if r.Kind != kindOutput || r.Seq >= len(c.entries) || !c.entries[r.Seq].evicted ||
			r.Model < 0 || r.Model >= len(c.z.Models) {
			return nil
		}
		memos := disk[r.Seq]
		if memos == nil {
			memos = make([]diskMemo, len(c.z.Models))
			disk[r.Seq] = memos
		}
		memos[r.Model] = diskMemo{out: r.Out, ok: true}
		return nil
	}
	if err := readSnapshot(c.snapPath(), keep); err != nil {
		return err
	}
	if data, err := os.ReadFile(c.path); err == nil && checkHeader(data, journalMagic, journalVersion, "journal") == nil {
		_, _ = parseJournal(data[headerLen:], keep)
	}

	buf := header(snapMagic, snapVersion)
	for _, e := range c.entries {
		buf = appendFrame(buf, &record{Kind: kindAdmit, Seq: e.seq, Tag: e.tag, Scene: *e.item.Scene()})
		if e.evicted {
			for m, d := range disk[e.seq] {
				if d.ok {
					buf = appendFrame(buf, &record{Kind: kindOutput, Seq: e.seq, Model: m, Out: d.out})
				}
			}
		} else {
			models, outs := e.item.Memos()
			for i, m := range models {
				buf = appendFrame(buf, &record{Kind: kindOutput, Seq: e.seq, Model: m, Out: outs[i]})
			}
		}
		if e.committed {
			buf = appendFrame(buf, &record{Kind: kindCommit, Seq: e.seq, Executed: e.executed, ScheduleMS: e.scheduleMS})
		}
	}

	tmp := c.snapPath() + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("corpus: snapshot: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		_ = f.Close()
		return fmt.Errorf("corpus: snapshot write: %w", err)
	}
	//amsvet:allow lockblock snapshot is a deliberate stop-the-world compaction: the corpus mutex must pin entries and the journal while the snapshot is fsynced and swapped in
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("corpus: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("corpus: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, c.snapPath()); err != nil {
		return fmt.Errorf("corpus: snapshot rename: %w", err)
	}

	// The snapshot now carries everything: restart the journal. A crash
	// between the rename and this truncation only leaves records the
	// snapshot already contains, which replay deduplicates by Seq.
	if err := c.f.Truncate(0); err != nil {
		return fmt.Errorf("corpus: truncate journal after snapshot: %w", err)
	}
	if _, err := c.f.Seek(0, 0); err != nil {
		return fmt.Errorf("corpus: rewind journal after snapshot: %w", err)
	}
	if _, err := c.f.Write(header(journalMagic, journalVersion)); err != nil {
		return fmt.Errorf("corpus: rewrite journal header: %w", err)
	}
	c.journalBytes = headerLen
	c.commitsSinceSnap = 0
	c.snapshots++
	// The truncated journal holds only its (reconstructible) header, and
	// every truncated record now lives in the fsynced snapshot.
	c.unsynced = 0
	return nil
}

// diskMemo is one persisted output a snapshot recovers from disk.
type diskMemo struct {
	out zoo.Output
	ok  bool
}

// readSnapshot parses a snapshot file, handing each record to fn (as
// parseJournal does); a missing file is not an error. A snapshot is
// renamed into place only once complete and fsynced, so unlike the
// journal it has no torn tail: a frame that fails to parse is
// corruption and fails loudly.
func readSnapshot(path string, fn func(*record) error) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("corpus: read snapshot: %w", err)
	}
	if err := checkHeader(data, snapMagic, snapVersion, "snapshot "+path); err != nil {
		return err
	}
	good, err := parseJournal(data[headerLen:], fn)
	if err != nil {
		return err
	}
	if good != len(data)-headerLen {
		return fmt.Errorf("corpus: snapshot %s: corrupt frame at byte %d of %d", path, headerLen+good, len(data))
	}
	return nil
}

// loadSnapshot seeds the in-memory state from the snapshot file, if one
// exists. Every persisted output is preloaded into its item's memo so
// recovery never re-runs a model; callers that do not need the history
// resident reclaim committed items afterwards (ReclaimCommitted).
func (c *Corpus) loadSnapshot() error {
	i := 0
	return readSnapshot(c.snapPath(), func(rec *record) error {
		// An admit opens the next entry; its outputs and commit follow
		// it before the next admit.
		want := len(c.entries) - 1
		if rec.Kind == kindAdmit {
			want = len(c.entries)
		}
		if rec.Seq != want {
			return fmt.Errorf("corpus: snapshot %s: record %d has sequence %d, want %d (corrupt ordering)",
				c.snapPath(), i, rec.Seq, want)
		}
		c.apply(rec)
		i++
		return nil
	})
}
