// Package corpus is the durable ingestion corpus of the labeling server:
// it owns the lifetime of externally ingested items end to end, from
// admission to eviction to crash recovery.
//
// Every lifecycle event is appended to a write-ahead journal — the
// admitted scene, each memoized (item, model) output as inference lands,
// and a commit record when the item's schedule completes — so a server
// killed at an arbitrary point can reopen the journal and recover: items
// committed before the crash are re-served bit-identically from their
// persisted memos without re-running any model, and items admitted but
// not committed re-run only the models whose outputs never reached the
// journal.
//
// In-memory growth is bounded by refcounted eviction. An item holds one
// reference per in-flight schedule; once its result is committed and the
// last reference drops, its memoized outputs are reclaimed (the journal
// keeps the durable copy, and zoo inference is a pure function of the
// scene, so even a re-serve after eviction reproduces the same outputs).
// The MaxResident watermark turns this into admission backpressure: when
// the corpus holds that many resident items, TryAdmit refuses and
// AdmitWait blocks until an eviction frees a slot.
//
// Periodic snapshots compact the journal: a snapshot merges the previous
// snapshot, the journal, and the in-memory state into one file (so no
// output is ever lost across snapshot generations), then truncates the
// journal. Opening a corpus loads the snapshot and replays the journal
// tail on top, tolerating a torn final record.
package corpus

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"ams/internal/oracle"
	"ams/internal/synth"
	"ams/internal/zoo"
)

// Admission and lifecycle errors.
var (
	// ErrFull is the admission backpressure signal: the corpus already
	// holds MaxResident resident items. Committing (and thereby evicting)
	// in-flight items frees slots.
	ErrFull = errors.New("corpus: resident watermark reached")
	// ErrClosed follows Close.
	ErrClosed = errors.New("corpus: closed")
)

// Options parameterizes a corpus.
type Options struct {
	// MaxResident, when positive, bounds the number of resident items
	// (items whose memoized outputs occupy memory: everything admitted
	// and not yet evicted). Admission of new items past the watermark is
	// refused (TryAdmit) or blocked (AdmitWait) until evictions free
	// slots. Zero means unbounded.
	MaxResident int
	// SnapshotEvery, when positive, compacts the journal into a snapshot
	// automatically after every N commit records. Zero disables
	// automatic snapshots; Snapshot can still be called explicitly.
	SnapshotEvery int
	// SyncEveryN and SyncEveryMS enable group-commit fsync: a background
	// flusher syncs the journal whenever N records have accumulated since
	// the last sync (SyncEveryN) and at least every SyncEveryMS
	// milliseconds (SyncEveryMS), whichever fires first. Writers never
	// block on the flush — they keep appending while a batch syncs — so
	// durability against machine-level power loss costs one fsync per
	// batch instead of one per record. Both zero (the default) preserves
	// the original behavior: the journal is synced only on Close and
	// Snapshot, and an OS crash may lose the tail (a process crash alone
	// never does — the records are in the page cache).
	SyncEveryN  int
	SyncEveryMS float64
}

// entry is one item's corpus-side state. The scene and the commit
// metadata stay for the corpus's lifetime (they are small); the memoized
// outputs — the bulk — live in the item and are reclaimed by eviction.
type entry struct {
	seq  int
	tag  string
	item *oracle.ExternalItem

	refs       int  // in-flight schedules holding the item
	committed  bool // a commit record has been journaled
	evicted    bool // the memo is currently reclaimed
	executed   []int
	scheduleMS float64
}

// Corpus is a durable, evictable collection of ingested items backed by
// a write-ahead journal. Safe for concurrent use.
type Corpus struct {
	z    *zoo.Zoo
	path string
	opts Options

	mu               sync.Mutex
	f                *os.File
	entries          []*entry
	resident         int
	committed        int
	evictedTotal     int64
	journalBytes     int64
	journalRecords   int64
	snapshots        int64
	commitsSinceSnap int
	closed           bool
	err              error         // sticky journal write error
	buf              []byte        // frame buffer writeRecord reuses
	space            chan struct{} // closed and replaced on every eviction

	// Group-commit fsync state (nil channels when disabled).
	unsynced  int64         // records appended since the last sync
	syncs     int64         // group-commit syncs performed
	syncReq   chan struct{} // capacity 1: nudges the flusher at SyncEveryN
	flushStop chan struct{}
	flushDone chan struct{}

	metrics *Metrics // durability telemetry; nil disables (see SetMetrics)
}

// Stats is a point-in-time summary of the corpus.
type Stats struct {
	Items          int   // items the corpus tracks (admitted, ever)
	Resident       int   // items whose memoized outputs occupy memory
	Committed      int   // items with a journaled completion
	Evicted        int64 // memo reclamations since open
	JournalBytes   int64 // current journal size, including the header
	JournalRecords int64 // records appended since open
	Snapshots      int64 // compacting snapshots taken since open
	Syncs          int64 // group-commit fsync batches since open
	Unsynced       int64 // records appended and not yet fsynced
}

// ItemState is one entry's externally visible lifecycle state.
type ItemState struct {
	Seq        int
	Tag        string
	Committed  bool
	Resident   bool
	MemoCount  int   // model outputs currently memoized in memory
	Executed   []int // the committed schedule's models, in execution order
	ScheduleMS float64
}

// Open opens (or creates) the corpus journaled at path against the zoo.
// An existing snapshot (path + ".snap") is loaded first, then the
// journal is replayed on top; a torn record at the journal's tail — the
// signature of a crash mid-write — is discarded by truncating the file
// to the last complete record, after which appending resumes there.
func Open(z *zoo.Zoo, path string, opts Options) (*Corpus, error) {
	if z == nil {
		return nil, errors.New("corpus: nil zoo")
	}
	if opts.MaxResident < 0 || opts.SnapshotEvery < 0 || opts.SyncEveryN < 0 || opts.SyncEveryMS < 0 {
		return nil, fmt.Errorf("corpus: negative option in %+v", opts)
	}
	c := &Corpus{z: z, path: path, opts: opts, space: make(chan struct{})}
	if err := c.loadSnapshot(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("corpus: open journal: %w", err)
	}
	c.f = f
	info, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("corpus: stat journal: %w", err)
	}
	if info.Size() == 0 {
		if _, err := f.Write(header(journalMagic, journalVersion)); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("corpus: write journal header: %w", err)
		}
		c.journalBytes = headerLen
		c.startFlusher()
		return c, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("corpus: read journal: %w", err)
	}
	if err := checkHeader(data, journalMagic, journalVersion, "journal "+path); err != nil {
		_ = f.Close()
		return nil, err
	}
	goodOffset, _ := parseJournal(data[headerLen:], func(rec *record) error {
		c.apply(rec)
		return nil
	})
	end := int64(headerLen + goodOffset)
	if end < info.Size() {
		// Torn tail: drop it so appended records start on a clean frame.
		if err := f.Truncate(end); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("corpus: truncate torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(end, 0); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("corpus: seek journal end: %w", err)
	}
	c.journalBytes = end
	c.startFlusher()
	return c, nil
}

// startFlusher launches the group-commit fsync goroutine when either
// sync option is set.
func (c *Corpus) startFlusher() {
	if c.opts.SyncEveryN <= 0 && c.opts.SyncEveryMS <= 0 {
		return
	}
	c.syncReq = make(chan struct{}, 1)
	c.flushStop = make(chan struct{})
	c.flushDone = make(chan struct{})
	go c.flusher()
}

// flusher is the group-commit loop: it syncs the journal on the
// SyncEveryN nudge from writeRecord, on the SyncEveryMS ticker, and
// exits on Close (which performs the final sync itself, after every
// writer is fenced out by the closed flag).
func (c *Corpus) flusher() {
	defer close(c.flushDone)
	var tickC <-chan time.Time
	if c.opts.SyncEveryMS > 0 {
		tick := time.NewTicker(time.Duration(c.opts.SyncEveryMS * float64(time.Millisecond)))
		defer tick.Stop()
		tickC = tick.C
	}
	for {
		select {
		case <-c.flushStop:
			return
		case <-c.syncReq:
			c.syncJournal()
		case <-tickC:
			c.syncJournal()
		}
	}
}

// syncJournal fsyncs the batch of records appended since the last sync.
// The Sync runs outside c.mu — writers keep appending to the journal
// while the batch flushes; those appends simply land in the next batch.
func (c *Corpus) syncJournal() {
	c.mu.Lock()
	if c.closed || c.err != nil || c.unsynced == 0 {
		c.mu.Unlock()
		return
	}
	pending := c.unsynced
	f := c.f
	m := c.metrics
	c.mu.Unlock()
	t0 := m.fsyncStart()
	err := f.Sync()
	m.fsyncDone(t0)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		if c.err == nil && !c.closed {
			c.err = fmt.Errorf("corpus: journal sync: %w", err)
		}
		return
	}
	c.syncs++
	// A concurrent snapshot may have truncated the journal and reset the
	// counter; never let it go negative.
	if c.unsynced -= pending; c.unsynced < 0 {
		c.unsynced = 0
	}
}

// apply folds one replayed journal record into the in-memory state.
// Records that reference unknown sequence numbers or models (possible
// only with a body that passed its CRC yet was written wrong) are
// ignored rather than fatal: the journal is the recovery path, and
// salvaging every valid record beats refusing the whole corpus.
func (c *Corpus) apply(rec *record) {
	switch rec.Kind {
	case kindAdmit:
		if rec.Seq < len(c.entries) {
			return // already known (snapshot overlap after a torn compaction)
		}
		if rec.Seq > len(c.entries) {
			return // gap: unusable without its admit record's predecessors
		}
		c.addEntry(rec.Scene, rec.Tag)
	case kindOutput:
		if rec.Seq < len(c.entries) && rec.Model >= 0 && rec.Model < len(c.z.Models) {
			c.entries[rec.Seq].item.Preload(rec.Model, rec.Out)
		}
	case kindCommit:
		if rec.Seq < len(c.entries) {
			e := c.entries[rec.Seq]
			if !e.committed {
				c.committed++
			}
			e.committed = true
			e.executed = rec.Executed
			e.scheduleMS = rec.ScheduleMS
		}
	}
}

// addEntry creates entry state for a scene and installs the persistence
// hook that journals each memoized output as inference lands. Caller
// holds c.mu (or is single-threaded setup).
func (c *Corpus) addEntry(scene synth.Scene, tag string) *entry {
	e := &entry{seq: len(c.entries), tag: tag, item: oracle.NewExternalItem(c.z, scene)}
	seq := e.seq
	e.item.SetOutputHook(func(m int, out zoo.Output) {
		c.journalOutput(seq, m, out)
	})
	c.entries = append(c.entries, e)
	c.resident++
	return e
}

// admitLocked is the admission body; the caller holds c.mu.
func (c *Corpus) admitLocked(scene synth.Scene, tag string) (int, error) {
	if c.closed {
		return 0, ErrClosed
	}
	if c.err != nil {
		return 0, c.err
	}
	if c.opts.MaxResident > 0 && c.resident >= c.opts.MaxResident {
		return 0, ErrFull
	}
	e := c.addEntry(scene, tag)
	if err := c.writeRecord(&record{Kind: kindAdmit, Seq: e.seq, Tag: tag, Scene: scene}); err != nil {
		return 0, err
	}
	return e.seq, nil
}

// TryAdmit admits one scene without blocking, journaling it, and returns
// its sequence number. ErrFull is the backpressure signal when the
// resident watermark is reached; re-admitting is the caller's retry.
func (c *Corpus) TryAdmit(scene synth.Scene, tag string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.admitLocked(scene, tag)
}

// AdmitWait admits one scene, blocking while the resident watermark is
// reached until an eviction frees a slot, the context is cancelled, or
// the corpus closes (returning ErrClosed).
func (c *Corpus) AdmitWait(ctx context.Context, scene synth.Scene, tag string) (int, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		// The wakeup channel is captured under the same lock that
		// observes fullness: an eviction (or Close) after the unlock
		// closes exactly this channel, so no wakeup can be lost between
		// the failed attempt and the wait.
		c.mu.Lock()
		seq, err := c.admitLocked(scene, tag)
		space := c.space
		c.mu.Unlock()
		if !errors.Is(err, ErrFull) {
			return seq, err
		}
		select {
		case <-space:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	}
}

// journalOutput is the persistence hook: one freshly memoized (item,
// model) output lands in the journal. Write failures stick and surface
// on the next Admit/Commit/Close. It also un-evicts bookkeeping when an
// evicted item's output is recomputed (a re-serve after eviction), since
// its memo occupies memory again.
func (c *Corpus) journalOutput(seq, m int, out zoo.Output) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || c.err != nil {
		return
	}
	e := c.entries[seq]
	if e.evicted {
		e.evicted = false
		c.resident++
	}
	_ = c.writeRecord(&record{Kind: kindOutput, Seq: seq, Model: m, Out: out})
}

// Begin registers one in-flight schedule for the item: the refcount that
// holds its memo resident until Commit or Abort.
func (c *Corpus) Begin(seq int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq < 0 || seq >= len(c.entries) {
		return
	}
	c.entries[seq].refs++
}

// Abort drops a Begin'd reference without a completion — an admission
// that failed downstream (queue full, server closed, cancelled wait).
// The entry stays addressable (a retry of the same item reuses its
// slot), but when no other schedule holds it, its watermark slot is
// reclaimed immediately: a client that sheds on ErrQueueFull and never
// retries must not strand resident slots until the corpus wedges.
func (c *Corpus) Abort(seq int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq < 0 || seq >= len(c.entries) {
		return
	}
	e := c.entries[seq]
	e.refs--
	if e.committed {
		c.maybeEvict(e)
	} else if e.refs <= 0 {
		// Never ran (an abort precedes any worker): nothing is memoized
		// beyond what the journal already holds, so eviction only frees
		// the slot. A later re-serve re-memoizes and re-registers as
		// resident through the output hook.
		c.evictLocked(e)
	}
}

// Commit journals the item's completion — the explicit end of its
// lifetime: the result is final, readers received their copies, and the
// memo may be reclaimed once the last concurrent schedule commits too.
// Commit is idempotent per schedule; a re-serve of a committed item
// journals a fresh (identical) commit record.
func (c *Corpus) Commit(seq int, executed []int, scheduleMS float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if seq < 0 || seq >= len(c.entries) {
		return fmt.Errorf("corpus: commit of unknown item %d", seq)
	}
	if c.closed {
		return ErrClosed
	}
	e := c.entries[seq]
	e.refs--
	if !e.committed {
		c.committed++
	}
	e.committed = true
	e.executed = append([]int(nil), executed...)
	e.scheduleMS = scheduleMS
	err := c.writeRecord(&record{Kind: kindCommit, Seq: seq, Executed: e.executed, ScheduleMS: scheduleMS})
	c.maybeEvict(e)
	c.commitsSinceSnap++
	if err == nil && c.opts.SnapshotEvery > 0 && c.commitsSinceSnap >= c.opts.SnapshotEvery {
		err = c.snapshotLocked()
	}
	return err
}

// maybeEvict reclaims the entry's memo when its result is committed and
// no in-flight schedule holds it. Caller holds c.mu.
func (c *Corpus) maybeEvict(e *entry) {
	if !e.committed || e.refs > 0 || e.evicted {
		return
	}
	c.evictLocked(e)
}

// evictLocked unconditionally reclaims the entry's memo and its
// watermark slot, waking admission waiters. Caller holds c.mu.
func (c *Corpus) evictLocked(e *entry) {
	if e.evicted {
		return
	}
	e.item.Evict()
	e.evicted = true
	c.resident--
	c.evictedTotal++
	// Wake every AdmitWait blocked on the watermark.
	close(c.space)
	c.space = make(chan struct{})
}

// ReclaimCommitted evicts every committed item no schedule holds —
// called after recovery has read what it needs, so a reopened corpus
// does not pin its whole history in memory.
func (c *Corpus) ReclaimCommitted() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		c.maybeEvict(e)
	}
}

// writeRecord appends one record to the journal. Caller holds c.mu.
// Failures stick: a corpus that cannot journal refuses further
// admissions rather than silently degrading to memory-only.
func (c *Corpus) writeRecord(rec *record) error {
	t0 := c.metrics.appendStart()
	c.buf = appendFrame(c.buf[:0], rec)
	frame := c.buf
	var err error
	if len(frame) > maxRecordLen {
		// The reader would refuse it as a torn tail, and every record after it.
		err = fmt.Errorf("record of %d bytes exceeds the %d-byte frame limit", len(frame), maxRecordLen)
	} else {
		_, err = c.f.Write(frame)
	}
	if err != nil {
		c.err = fmt.Errorf("corpus: journal write: %w", err)
		return c.err
	}
	c.metrics.appendDone(t0)
	c.journalBytes += int64(len(frame))
	c.journalRecords++
	c.unsynced++
	if c.opts.SyncEveryN > 0 && c.unsynced >= int64(c.opts.SyncEveryN) && c.syncReq != nil {
		select {
		case c.syncReq <- struct{}{}:
		default: // a nudge is already pending
		}
	}
	return nil
}

// Item returns the managed item for a sequence number — the executor
// payload whose memoized outputs recovery reads.
func (c *Corpus) Item(seq int) *oracle.ExternalItem {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries[seq].item
}

// Len returns the number of items the corpus tracks.
func (c *Corpus) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// States returns every item's lifecycle state in sequence order.
func (c *Corpus) States() []ItemState {
	c.mu.Lock()
	defer c.mu.Unlock()
	states := make([]ItemState, len(c.entries))
	for i, e := range c.entries {
		states[i] = ItemState{
			Seq:        e.seq,
			Tag:        e.tag,
			Committed:  e.committed,
			Resident:   !e.evicted,
			MemoCount:  e.item.MemoCount(),
			Executed:   append([]int(nil), e.executed...),
			ScheduleMS: e.scheduleMS,
		}
	}
	return states
}

// Stats returns a point-in-time summary.
func (c *Corpus) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Items:          len(c.entries),
		Resident:       c.resident,
		Committed:      c.committed,
		Evicted:        c.evictedTotal,
		JournalBytes:   c.journalBytes,
		JournalRecords: c.journalRecords,
		Snapshots:      c.snapshots,
		Syncs:          c.syncs,
		Unsynced:       c.unsynced,
	}
}

// Close syncs and closes the journal. The corpus refuses further
// admissions and commits; a sticky journal write error surfaces here.
func (c *Corpus) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.closed = true
	// Wake every AdmitWait blocked on the watermark: their next attempt
	// returns ErrClosed.
	close(c.space)
	c.space = make(chan struct{})
	err := c.err
	f := c.f
	c.mu.Unlock()
	// Stop the group-commit flusher before the final sync. The closed
	// flag fences out every writer, so the Sync below covers the whole
	// journal, and the flusher never touches a closed file.
	if c.flushStop != nil {
		close(c.flushStop)
		<-c.flushDone
	}
	// The final fsync and close run outside c.mu: with the closed flag
	// set and the flusher drained the file is quiescent, and holding the
	// corpus mutex across disk latency is exactly the blocking-under-lock
	// bug class the group-commit rework removed (amsvet: lockblock).
	if syncErr := f.Sync(); err == nil && syncErr != nil {
		err = fmt.Errorf("corpus: sync journal: %w", syncErr)
	}
	if closeErr := f.Close(); err == nil && closeErr != nil {
		err = fmt.Errorf("corpus: close journal: %w", closeErr)
	}
	c.mu.Lock()
	c.unsynced = 0
	c.mu.Unlock()
	return err
}
