package distrib

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"cyclesteal/fleet"
)

// Starter opens one worker connection: anything that speaks the wire
// conversation over a byte stream. Closing the connection tells the worker
// to exit. InProcess and ExecStarter cover the two standard transports;
// anything else (ssh, containers, a cluster scheduler) is a Starter away.
type Starter func(ctx context.Context) (io.ReadWriteCloser, error)

// Options tunes a Coordinator. None of the knobs affect the merged
// numbers — a study is bit-identical at any worker count, retry history or
// arrival order; these only shape wall-clock time and fault tolerance.
type Options struct {
	// Workers is the number of concurrent worker connections. 0 means 1.
	Workers int
	// Start opens worker connections. nil means InProcess(): worker
	// goroutines in this process, the zero-dependency default.
	Start Starter
	// MaxRetries is how many times one chunk may be re-dealt after
	// failures before the study fails loudly. 0 means 2.
	MaxRetries int
	// WorkerTimeout is the maximum silence on a connection — no progress,
	// shard, or done frame — before the coordinator declares the worker
	// dead and re-deals its chunk. 0 disables the timeout (worker death
	// is still detected by connection close). The mc engine emits progress
	// about every 200ms while trials run, so timeouts well above that are
	// safe even for long shards.
	WorkerTimeout time.Duration
	// Progress, when non-nil, observes study-level progress: trials
	// finished across all workers (committed chunks plus live assignment
	// progress) out of the study total. A final snapshot always arrives
	// before Run returns — on success, failure and cancellation alike.
	Progress func(done, total int)
}

// Coordinator deals a study's shards to workers and merges their results.
// Build one with NewCoordinator; Run may be called once.
type Coordinator struct {
	opts Options
	// merger is the study with no job: Merge reads only the fleet, the
	// trial count and the metric columns, and the workers deal the job.
	merger *fleet.Study
	// studyLine is the encoded study frame. Every dial writes these same
	// bytes, re-dials included.
	studyLine []byte
}

// NewCoordinator validates the spec — its ticks and everything fleet.New
// and fleet.Fleet.StudyTicks enforce, so a bad study fails here, before
// any worker spawns — encodes its study frame once, and prepares a
// coordinator that keeps no copy of the job.
func NewCoordinator(spec Spec, opts Options) (*Coordinator, error) {
	frame := Frame{Kind: FrameStudy, Format: wireFormat, Version: wireVersion, Spec: &spec}
	if err := frame.validate(); err != nil {
		return nil, err
	}
	f, err := spec.buildFleet()
	if err != nil {
		return nil, err
	}
	merger, err := f.StudyTicks(nil, spec.Trials)
	if err != nil {
		return nil, err
	}
	if opts.Workers < 0 || opts.MaxRetries < 0 || opts.WorkerTimeout < 0 {
		return nil, fmt.Errorf("distrib: negative option")
	}
	if opts.Workers == 0 {
		opts.Workers = 1
	}
	if opts.Start == nil {
		opts.Start = InProcess()
	}
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 2
	}
	line, err := encodeFrame(frame)
	if err != nil {
		return nil, err
	}
	return &Coordinator{opts: opts, merger: merger, studyLine: line}, nil
}

// Trials is the study's total trial count (the Progress total).
func (c *Coordinator) Trials() int { return c.merger.Trials() }

// chunk is one assignment: a fixed slice of the shard space. Chunks are
// cut once and keep their identity across re-deals, so retry counts stick
// to the work, not the worker.
type chunk struct {
	idx int
	ids []int
}

// runState is the shared ledger of one Run: committed shard results, live
// per-slot progress, per-chunk retry counts, and the first fatal error.
type runState struct {
	mu         sync.Mutex
	total      int
	trialsOf   func(shard int) int
	committed  []fleet.ShardResult
	doneTrials int
	live       map[int]int
	retries    []int
	maxRetries int
	remaining  int
	allDone    chan struct{}
	err        error
	progressFn func(done, total int)
}

func (st *runState) emitLocked() {
	if st.progressFn == nil {
		return
	}
	done := st.doneTrials
	for _, d := range st.live {
		done += d
	}
	if done > st.total {
		done = st.total
	}
	st.progressFn(done, st.total)
}

// setLive updates one slot's in-assignment trial count.
func (st *runState) setLive(slot, done int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.live[slot] = done
	st.emitLocked()
}

// clearLive drops a slot's live contribution (its assignment ended, one
// way or the other).
func (st *runState) clearLive(slot int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.live, slot)
	st.emitLocked()
}

// commit folds one completed chunk into the ledger.
func (st *runState) commit(slot int, ck chunk, results map[int]fleet.ShardResult) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, id := range ck.ids {
		st.committed = append(st.committed, results[id])
		st.doneTrials += st.trialsOf(id)
	}
	delete(st.live, slot)
	st.remaining--
	if st.remaining == 0 {
		close(st.allDone)
	}
	st.emitLocked()
}

// fail counts one failed deal of ck. It reports whether the chunk may be
// re-dealt; when the retry budget is spent it records the fatal error
// instead.
func (st *runState) fail(ck chunk, cause error) (retry bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.retries[ck.idx]++
	if st.retries[ck.idx] <= st.maxRetries {
		return true
	}
	if st.err == nil {
		st.err = fmt.Errorf("distrib: shards %v failed %d times, giving up: %w", ck.ids, st.retries[ck.idx], cause)
	}
	return false
}

// Run executes the study: deals shard chunks to Workers concurrent worker
// connections, re-deals the chunks of workers that die or time out (up to
// MaxRetries per chunk, then a loud error naming the shards), and merges
// the complete cover through fleet.Study.Merge — bit-identical to a
// single-process fleet.Replicate of the same spec, at any worker count and
// any arrival order. Cancelling ctx stops the study: workers are told to
// exit (their connections close), a final progress snapshot is emitted,
// and ctx.Err() returns.
func (c *Coordinator) Run(ctx context.Context) (fleet.Replication, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// An even split that deals every worker about four assignments: a dead
	// worker re-deals a quarter of its share, and each handshake carries
	// several shards.
	chunks := cutChunks(c.merger.AllShards(), max(1, fleet.StudyShards/(4*c.opts.Workers)))
	st := &runState{
		total:      c.merger.Trials(),
		trialsOf:   c.merger.ShardTrials,
		live:       make(map[int]int),
		retries:    make([]int, len(chunks)),
		maxRetries: c.opts.MaxRetries,
		remaining:  len(chunks),
		allDone:    make(chan struct{}),
		progressFn: c.opts.Progress,
	}
	queue := make(chan chunk, len(chunks))
	for _, ck := range chunks {
		queue <- ck
	}

	var wg sync.WaitGroup
	for slot := 0; slot < c.opts.Workers; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			c.runSlot(runCtx, cancel, slot, queue, st)
		}(slot)
	}
	wg.Wait()

	st.mu.Lock()
	st.live = map[int]int{}
	st.emitLocked() // the final snapshot, on every outcome
	err := st.err
	results := st.committed
	st.mu.Unlock()

	if err != nil {
		return fleet.Replication{}, err
	}
	if ctx.Err() != nil {
		return fleet.Replication{}, ctx.Err()
	}
	return c.merger.Merge(results)
}

// runSlot is one worker slot's loop: keep a connection alive, deal chunks
// from the queue, re-deal on failure, stop when the study is done, failed
// or cancelled.
func (c *Coordinator) runSlot(ctx context.Context, cancel context.CancelFunc, slot int, queue chan chunk, st *runState) {
	var cn *conn
	defer func() {
		if cn != nil {
			cn.close()
		}
	}()
	for {
		select {
		case <-ctx.Done():
			return
		case <-st.allDone:
			return
		case ck := <-queue:
			err := c.runChunk(ctx, slot, &cn, ck, st)
			st.clearLive(slot)
			if err == nil {
				continue
			}
			if ctx.Err() != nil {
				return // cancellation, not a worker failure
			}
			if !st.fail(ck, err) {
				cancel()
				return
			}
			queue <- ck
		}
	}
}

// runChunk deals one chunk over the slot's connection (dialing and
// handshaking first if needed) and waits for the worker's answer. On any
// failure the connection is dropped — the next chunk dials fresh.
func (c *Coordinator) runChunk(ctx context.Context, slot int, cnp **conn, ck chunk, st *runState) error {
	if *cnp == nil {
		cn, err := c.dial(ctx)
		if err != nil {
			return err
		}
		*cnp = cn
	}
	cn := *cnp
	drop := func() {
		cn.close()
		*cnp = nil
	}
	if err := cn.s.send(Frame{Kind: FrameAssign, Shards: ck.ids}); err != nil {
		drop()
		return fmt.Errorf("distrib: assigning shards: %w", err)
	}
	want := make(map[int]bool, len(ck.ids))
	for _, id := range ck.ids {
		want[id] = true
	}
	got := make(map[int]fleet.ShardResult, len(ck.ids))
	var timeC <-chan time.Time
	var timer *time.Timer
	if c.opts.WorkerTimeout > 0 {
		timer = time.NewTimer(c.opts.WorkerTimeout)
		defer timer.Stop()
		timeC = timer.C
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timeC:
			drop()
			return fmt.Errorf("distrib: worker silent for %v, presumed dead", c.opts.WorkerTimeout)
		case fe, ok := <-cn.frames:
			if !ok || fe.err != nil {
				drop()
				if !ok || fe.err == io.EOF {
					return fmt.Errorf("distrib: worker connection closed mid-assignment")
				}
				return fe.err
			}
			if timer != nil {
				if !timer.Stop() {
					<-timer.C
				}
				timer.Reset(c.opts.WorkerTimeout)
			}
			switch fe.f.Kind {
			case FrameProgress:
				st.setLive(slot, fe.f.Done)
			case FrameShard:
				id := fe.f.Shard.Shard
				if !want[id] {
					drop()
					return fmt.Errorf("distrib: worker returned unassigned shard %d", id)
				}
				if _, dup := got[id]; dup {
					drop()
					return fmt.Errorf("distrib: worker returned shard %d twice", id)
				}
				got[id] = *fe.f.Shard
			case FrameDone:
				if len(got) != len(ck.ids) {
					drop()
					return fmt.Errorf("distrib: worker acknowledged %d shards but sent %d", len(ck.ids), len(got))
				}
				st.commit(slot, ck, got)
				return nil
			case FrameError:
				drop()
				return fmt.Errorf("distrib: worker failed: %s", fe.f.Error)
			default:
				drop()
				return fmt.Errorf("distrib: unexpected %q frame mid-assignment", fe.f.Kind)
			}
		}
	}
}

// dial opens a connection, collects the worker's hello and sends the study
// frame.
func (c *Coordinator) dial(ctx context.Context) (*conn, error) {
	rwc, err := c.opts.Start(ctx)
	if err != nil {
		return nil, fmt.Errorf("distrib: starting worker: %w", err)
	}
	cn := newConn(rwc)
	var timeC <-chan time.Time
	if c.opts.WorkerTimeout > 0 {
		t := time.NewTimer(c.opts.WorkerTimeout)
		defer t.Stop()
		timeC = t.C
	}
	select {
	case <-ctx.Done():
		cn.close()
		return nil, ctx.Err()
	case <-timeC:
		cn.close()
		return nil, fmt.Errorf("distrib: worker never said hello")
	case fe, ok := <-cn.frames:
		if !ok || fe.err != nil {
			cn.close()
			if !ok || fe.err == io.EOF {
				return nil, fmt.Errorf("distrib: worker exited before hello")
			}
			return nil, fe.err
		}
		if fe.f.Kind != FrameHello {
			cn.close()
			return nil, fmt.Errorf("distrib: expected hello, got %q", fe.f.Kind)
		}
	}
	if err := cn.s.write(c.studyLine); err != nil {
		cn.close()
		return nil, fmt.Errorf("distrib: sending study: %w", err)
	}
	return cn, nil
}

// frameErr is one reader event: a frame or the error that ended the
// connection.
type frameErr struct {
	f   Frame
	err error
}

// conn wraps one worker connection with a reader goroutine, so assignment
// waits can select over frames, timeouts and cancellation without leaking
// the reader: close() stops it whether it is blocked on the transport or
// on delivery.
type conn struct {
	rwc    io.ReadWriteCloser
	s      *stream
	frames chan frameErr
	stop   chan struct{}
	once   sync.Once
}

func newConn(rwc io.ReadWriteCloser) *conn {
	cn := &conn{
		rwc:    rwc,
		s:      newStream(rwc, rwc),
		frames: make(chan frameErr),
		stop:   make(chan struct{}),
	}
	go func() {
		defer close(cn.frames)
		for {
			f, err := cn.s.recv()
			select {
			case cn.frames <- frameErr{f, err}:
			case <-cn.stop:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	return cn
}

func (cn *conn) close() {
	cn.once.Do(func() {
		close(cn.stop)
		cn.rwc.Close()
	})
}

// cutChunks slices the shard space into assignment-sized chunks.
func cutChunks(ids []int, size int) []chunk {
	var out []chunk
	for len(ids) > 0 {
		n := min(size, len(ids))
		out = append(out, chunk{idx: len(out), ids: ids[:n]})
		ids = ids[n:]
	}
	return out
}
