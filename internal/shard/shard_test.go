package shard

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"ams/internal/labels"
	"ams/internal/oracle"
	"ams/internal/serve"
	"ams/internal/service"
	"ams/internal/sim"
	"ams/internal/synth"
	"ams/internal/zoo"
)

var (
	vocab = labels.NewVocabulary()
	z     = zoo.NewZoo(vocab)
	ds    = synth.NewDataset(vocab, synth.MSCOCO(), 40, 77)
	store = oracle.Build(z, ds.Scenes)
)

// fixedPolicy executes a fixed model list in order, skipping models the
// constraints exclude, so every item gets the same deterministic
// schedule regardless of which shard runs it.
type fixedPolicy struct{ models []int }

func (p *fixedPolicy) Name() string { return "fixed" }
func (p *fixedPolicy) Reset(int)    {}
func (p *fixedPolicy) Next(t *oracle.Tracker, c sim.Constraints) int {
	for _, m := range p.models {
		if !t.Executed(m) && c.Allows(z.Models[m]) {
			return m
		}
	}
	return -1
}
func (p *fixedPolicy) Observe(int, zoo.Output) {}

func fixedFactory(models ...int) service.PolicyFactory {
	return func(worker int) sim.Policy { return &fixedPolicy{models: models} }
}

// newShardServers builds n identical shard servers on one clock epoch.
func newShardServers(t *testing.T, n, workers int) []*serve.Server {
	t.Helper()
	epoch := time.Now()
	servers := make([]*serve.Server, n)
	for s := range servers {
		sv, err := serve.New(store, fixedFactory(0, 1), serve.Config{
			Config:    service.Config{Workers: workers, DeadlineSec: 0.5},
			TimeScale: 0.001,
			Epoch:     epoch,
		})
		if err != nil {
			t.Fatalf("serve.New: %v", err)
		}
		servers[s] = sv
	}
	return servers
}

func workerCounts(n, workers int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = workers
	}
	return w
}

// keyOn finds a key at or after start whose hash home is shard s.
func keyOn(s, shards int, start uint64) uint64 {
	for k := start; ; k++ {
		if ShardFor(k, shards) == s {
			return k
		}
	}
}

func TestShardForStable(t *testing.T) {
	counts := make([]int, 4)
	for k := uint64(0); k < 4000; k++ {
		s := ShardFor(k, 4)
		if s2 := ShardFor(k, 4); s2 != s {
			t.Fatalf("ShardFor(%d) unstable: %d then %d", k, s, s2)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < 500 {
			t.Errorf("shard %d got %d of 4000 keys; hash is badly skewed", s, c)
		}
	}
}

func TestPlacementByName(t *testing.T) {
	for name, want := range map[string]Placement{
		"": Hash, "hash": Hash, "least": LeastLoaded, "affinity": Affinity,
	} {
		got, err := PlacementByName(name)
		if err != nil || got != want {
			t.Errorf("PlacementByName(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := PlacementByName("round-robin"); err == nil {
		t.Error("PlacementByName accepted an unknown policy")
	}
	for _, p := range []Placement{Hash, LeastLoaded, Affinity} {
		back, err := PlacementByName(p.String())
		if err != nil || back != p {
			t.Errorf("round-trip %v -> %q -> %v, %v", p, p.String(), back, err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	servers := newShardServers(t, 2, 1)
	defer servers[0].Close()
	defer servers[1].Close()
	for _, tc := range []struct {
		name string
		srv  []*serve.Server
		cfg  Config
		want string
	}{
		{"no servers", nil, Config{}, "no servers"},
		{"worker count mismatch", servers, Config{Workers: []int{1}}, "worker counts"},
		{"affinity without models", servers, Config{Workers: []int{1, 1}, Placement: Affinity}, "model count"},
		{"capacity mismatch", servers, Config{Workers: []int{1, 1}, Capacity: []int{1}}, "capacities"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.srv, tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestHashPlacementMatchesShardFor submits keyed items through two
// independently built routers and checks every item executes on
// ShardFor(key, n) in both — hash placement is stable across router
// rebuilds (and, by the same function, across restarts).
func TestHashPlacementMatchesShardFor(t *testing.T) {
	const n = 4
	for rebuild := 0; rebuild < 2; rebuild++ {
		r, err := New(newShardServers(t, n, 2), Config{Workers: workerCounts(n, 2)})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		tickets := make([]*Ticket, 80)
		for i := range tickets {
			tk, err := r.SubmitWait(context.Background(), Item{Key: uint64(i), Index: i % ds.Len()})
			if err != nil {
				t.Fatalf("SubmitWait: %v", err)
			}
			tickets[i] = tk
		}
		if err := r.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for i, tk := range tickets {
			res, err := tk.Result()
			if err != nil {
				t.Fatalf("item %d: %v", i, err)
			}
			if want := ShardFor(uint64(i), n); res.Shard != want {
				t.Errorf("rebuild %d: key %d ran on shard %d, want %d", rebuild, i, res.Shard, want)
			}
			if res.Stolen {
				t.Errorf("key %d reported stolen with stealing disabled", i)
			}
		}
	}
}

// TestAffinityGroupsHotTraffic drives two hint families through an
// affinity router and checks each family lands wholly on one shard —
// the first item of a family places by hash fallback, its heat credit
// then captures the rest.
func TestAffinityGroupsHotTraffic(t *testing.T) {
	const n = 2
	r, err := New(newShardServers(t, n, 2), Config{
		Placement: Affinity,
		Models:    len(z.Models),
		Workers:   workerCounts(n, 2),
		QueueCap:  64,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	keyA, keyB := keyOn(0, n, 0), keyOn(1, n, 0)
	var ticketsA, ticketsB []*Ticket
	for i := 0; i < 20; i++ {
		tkA, err := r.SubmitWait(context.Background(), Item{Key: keyA, Hint: []int{3}, Index: i % ds.Len()})
		if err != nil {
			t.Fatalf("SubmitWait A: %v", err)
		}
		tkB, err := r.SubmitWait(context.Background(), Item{Key: keyB, Hint: []int{7}, Index: i % ds.Len()})
		if err != nil {
			t.Fatalf("SubmitWait B: %v", err)
		}
		ticketsA, ticketsB = append(ticketsA, tkA), append(ticketsB, tkB)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, tk := range ticketsA {
		if res, err := tk.Result(); err != nil || res.Shard != 0 {
			t.Errorf("family A item %d: shard %d, err %v; want shard 0", i, res.Shard, err)
		}
	}
	for i, tk := range ticketsB {
		if res, err := tk.Result(); err != nil || res.Shard != 1 {
			t.Errorf("family B item %d: shard %d, err %v; want shard 1", i, res.Shard, err)
		}
	}
}

// TestStealDrainsIdleShard hashes every item to shard 0 and checks the
// otherwise-idle shard 1 steals a share of them.
func TestStealDrainsIdleShard(t *testing.T) {
	const n = 2
	r, err := New(newShardServers(t, n, 2), Config{
		Steal:    true,
		Workers:  workerCounts(n, 2),
		QueueCap: 8,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	key := keyOn(0, n, 0)
	tickets := make([]*Ticket, 60)
	for i := range tickets {
		tk, err := r.SubmitWait(context.Background(), Item{Key: key, Index: i % ds.Len()})
		if err != nil {
			t.Fatalf("SubmitWait: %v", err)
		}
		tickets[i] = tk
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	stolen := 0
	for i, tk := range tickets {
		res, err := tk.Result()
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if res.Stolen != (res.Shard != 0) {
			t.Errorf("item %d: shard %d stolen=%v is inconsistent with home 0", i, res.Shard, res.Stolen)
		}
		if res.Stolen {
			stolen++
		}
	}
	st := r.Stats()
	if stolen == 0 || st.Steals == 0 {
		t.Fatalf("idle shard stole nothing (results %d, stats %d) from a fully skewed stream", stolen, st.Steals)
	}
	if int64(stolen) != st.Steals {
		t.Errorf("stolen results %d != stats steals %d", stolen, st.Steals)
	}
	if st.PerShard[1].Steals != st.Steals || st.PerShard[0].StolenFrom != st.Steals {
		t.Errorf("per-shard steal accounting: %+v", st.PerShard)
	}
}

// TestPinBypassesPlacementAndSteal pins every item to shard 1 (the
// replay path) and checks none run elsewhere even with stealing on.
func TestPinBypassesPlacementAndSteal(t *testing.T) {
	const n = 2
	r, err := New(newShardServers(t, n, 2), Config{
		Steal:    true,
		Workers:  workerCounts(n, 2),
		QueueCap: 64,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tickets := make([]*Ticket, 30)
	for i := range tickets {
		tk, err := r.SubmitWait(context.Background(), Item{Key: uint64(i), Index: i % ds.Len(), Pin: 2})
		if err != nil {
			t.Fatalf("SubmitWait: %v", err)
		}
		tickets[i] = tk
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, tk := range tickets {
		res, err := tk.Result()
		if err != nil {
			t.Fatalf("item %d: %v", i, err)
		}
		if res.Shard != 1 || res.Stolen {
			t.Errorf("pinned item %d ran on shard %d (stolen=%v), want its pin 1", i, res.Shard, res.Stolen)
		}
	}
	if st := r.Stats(); st.Steals != 0 {
		t.Errorf("pinned stream recorded %d steals", st.Steals)
	}
}

// TestOneShardParity runs the same items through a 1-shard router and a
// bare server with the same deterministic policy: every item-level field
// that is not timing must match, and the merged summary must agree on
// counts and recall.
func TestOneShardParity(t *testing.T) {
	run := func(viaRouter bool) map[string]serve.ItemResult {
		sv := newShardServers(t, 1, 2)[0]
		out := make(map[string]serve.ItemResult)
		if viaRouter {
			r, err := New([]*serve.Server{sv}, Config{Workers: []int{2}})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			var tickets []*Ticket
			for i := 0; i < 12; i++ {
				tk, err := r.SubmitWait(context.Background(), Item{Key: uint64(i), Index: i, Tag: fmt.Sprintf("scene-%d", i)})
				if err != nil {
					t.Fatalf("SubmitWait: %v", err)
				}
				tickets = append(tickets, tk)
			}
			if err := r.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			for _, tk := range tickets {
				res, err := tk.Result()
				if err != nil {
					t.Fatalf("Result: %v", err)
				}
				out[res.Tag] = res.ItemResult
			}
			return out
		}
		var tickets []*serve.Ticket
		for i := 0; i < 12; i++ {
			tk, err := sv.SubmitWait(context.Background(), i, fmt.Sprintf("scene-%d", i))
			if err != nil {
				t.Fatalf("SubmitWait: %v", err)
			}
			tickets = append(tickets, tk)
		}
		if err := sv.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for _, tk := range tickets {
			res := tk.Wait()
			out[res.Tag] = res
		}
		return out
	}

	routed, direct := run(true), run(false)
	if len(routed) != len(direct) {
		t.Fatalf("routed %d items, direct %d", len(routed), len(direct))
	}
	for tag, d := range direct {
		r, ok := routed[tag]
		if !ok {
			t.Fatalf("item %q missing from routed run", tag)
		}
		if r.Image != d.Image || len(r.Executed) != len(d.Executed) ||
			r.ScheduleMS != d.ScheduleMS || r.Recall != d.Recall || r.HasRecall != d.HasRecall {
			t.Errorf("item %q diverged: routed %+v, direct %+v", tag, r, d)
		}
		for i := range d.Executed {
			if r.Executed[i] != d.Executed[i] {
				t.Errorf("item %q executed %v, direct %v", tag, r.Executed, d.Executed)
				break
			}
		}
	}
}

// TestShardStress hammers an affinity+steal router from concurrent
// submitters; run under -race in CI.
func TestShardStress(t *testing.T) {
	const n, workers, goroutines, each = 4, 2, 8, 25
	r, err := New(newShardServers(t, n, workers), Config{
		Placement: Affinity,
		Steal:     true,
		Models:    len(z.Models),
		Workers:   workerCounts(n, workers),
		QueueCap:  16,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tk, err := r.SubmitWait(context.Background(), Item{
					Key:   uint64(g*each + i),
					Hint:  []int{(g + i) % len(z.Models)},
					Index: (g*each + i) % ds.Len(),
				})
				if err != nil {
					errs <- err
					return
				}
				if _, err := tk.Result(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("submitter: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := r.Stats()
	if st.Merged.Completed != goroutines*each {
		t.Fatalf("completed %d of %d", st.Merged.Completed, goroutines*each)
	}
	if st.Failures != 0 {
		t.Fatalf("%d dispatch failures", st.Failures)
	}
	var assigned int64
	for _, ps := range st.PerShard {
		assigned += ps.Assigned
	}
	if assigned != goroutines*each {
		t.Errorf("assigned %d of %d", assigned, goroutines*each)
	}
}

// TestRejectedCountsOnlySheds checks that RejectedTotal counts refused
// non-blocking Submits and not SubmitWait's waits on a full queue. One
// dispatcher is parked in the first item's Resolve, so a one-slot queue
// stays full until the gate opens.
func TestRejectedCountsOnlySheds(t *testing.T) {
	r, err := New(newShardServers(t, 1, 1), Config{Workers: []int{1}, QueueCap: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	entered, gate := make(chan struct{}), make(chan struct{})
	first, err := r.Submit(Item{Resolve: func(int) (int, error) {
		close(entered)
		<-gate
		return 0, nil
	}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-entered
	queued, err := r.Submit(Item{Index: 1})
	if err != nil {
		t.Fatalf("Submit into the free slot: %v", err)
	}
	if _, err := r.Submit(Item{Index: 2}); err != serve.ErrQueueFull {
		t.Fatalf("Submit on a full queue: %v, want ErrQueueFull", err)
	}
	if got := r.RejectedTotal(); got != 1 {
		t.Fatalf("RejectedTotal after one refused Submit = %d, want 1", got)
	}

	type submitted struct {
		tk  *Ticket
		err error
	}
	waited := make(chan submitted, 1)
	go func() {
		tk, err := r.SubmitWait(context.Background(), Item{Index: 3})
		waited <- submitted{tk, err}
	}()
	time.Sleep(20 * time.Millisecond) // let SubmitWait meet the full queue
	select {
	case w := <-waited:
		t.Fatalf("SubmitWait returned (%v) while the queue was full", w.err)
	default:
	}
	close(gate)
	w := <-waited
	if w.err != nil {
		t.Fatalf("SubmitWait: %v", w.err)
	}
	if got := r.RejectedTotal(); got != 1 {
		t.Fatalf("RejectedTotal after a blocking SubmitWait = %d, want 1", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, tk := range []*Ticket{first, queued, w.tk} {
		if _, err := tk.Result(); err != nil {
			t.Fatalf("result: %v", err)
		}
	}
	if got := r.Stats().PerShard[0].Rejected; got != 1 {
		t.Fatalf("ShardStats.Rejected = %d, want 1", got)
	}
}
