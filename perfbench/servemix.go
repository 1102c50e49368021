package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"whilepar"
	"whilepar/internal/serve"
)

// serveProcs is the shared pool's width and serveClients the closed
// loop's client count: at most nproc (2 on the reference host).
const (
	serveProcs   = 2
	serveClients = 2
)

// job kinds of the serve-mixed traffic.
const (
	jobNormal   = "normal"
	jobDeadline = "deadline"
	jobCancel   = "cancel"
	jobPanic    = "panic"
)

// server is an in-process whilepard: a Scheduler on a shared pool behind
// serve.NewHandler on a loopback listener, with the cases registered as
// native job bodies.
type server struct {
	cases  []*loopCase
	sched  *serve.Scheduler
	srv    *http.Server
	done   chan error
	url    string
	client *http.Client
}

// nativeName is the registered body that runs case kind k.
func nativeName(kind string) string { return "perfbench." + kind }

// startServer starts the scheduler and HTTP server and registers the
// natives; stop releases everything it started.
func startServer(cases []*loopCase, store *whilepar.ProfileStore) (*server, error) {
	s := &server{cases: cases, done: make(chan error, 1)}
	for _, c := range cases {
		serve.RegisterNative(nativeName(c.kind), s.native)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.sched = serve.NewScheduler(serve.Config{Procs: serveProcs, Profiles: store})
	s.srv = &http.Server{Handler: serve.NewHandler(s.sched)}
	go func() { s.done <- s.srv.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	return s, nil
}

func (s *server) stop() error {
	s.client.CloseIdleConnections()
	err := s.srv.Shutdown(context.Background())
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.sched.Close()
	return err
}

// native is the job body behind every registered name: it runs case
// args["case"] on fresh copies of its inputs and checks the outcome
// against the plain-Go loop before returning.  A mismatch becomes an
// error that matches none of the runtime's typed sentinels, so the job
// ends failed/program, an outcome no job kind expects.
func (s *server) native(ctx context.Context, opt whilepar.Options, args map[string]float64) (whilepar.Report, error) {
	k := int(args["case"])
	if k < 0 || k >= len(s.cases) {
		return whilepar.Report{}, fmt.Errorf("perfbench: no case %d", k)
	}
	c := s.cases[k]
	panicAt := -1
	if p, ok := args["panic_at"]; ok {
		panicAt = int(p)
	}
	opt.Key = c.key
	arrs := c.fresh()
	rep, err := c.exec(ctx, opt, arrs, panicAt)
	if err == nil {
		if cerr := c.check(rep, arrs); cerr != nil {
			return rep, fmt.Errorf("oracle: %v", cerr)
		}
		return rep, nil
	}
	if cerr := c.checkPrefix(rep.Valid, arrs); cerr != nil {
		return rep, fmt.Errorf("oracle after %v: %v", err, cerr)
	}
	return rep, err
}

// jobPlan is one seeded job of the closed loop.
type jobPlan struct {
	caseIdx    int
	kind       string
	deadlineMs int64
	panicAt    int
}

// planner deals the seeded job stream of one client from a deck that
// holds, for every case, seven plain jobs and one each with an expiring
// deadline, canceled right after submit, and panicking at a seeded
// iteration (a plain job instead on list bodies).  Each deck is
// shuffled afresh, so the mix is exact per deck and only the order,
// deadlines and panic points depend on the seed.
type planner struct {
	rng   *rand.Rand
	cases []*loopCase
	mixed bool // false: plain jobs only (the serve probe of the other workloads)
	deck  []jobPlan
}

func (p *planner) next() jobPlan {
	if !p.mixed {
		return jobPlan{caseIdx: p.rng.Intn(len(p.cases)), kind: jobNormal, panicAt: -1}
	}
	if len(p.deck) == 0 {
		for i, c := range p.cases {
			kinds := []string{jobNormal, jobNormal, jobNormal, jobNormal, jobNormal, jobNormal, jobNormal,
				jobDeadline, jobCancel, jobPanic}
			for _, k := range kinds {
				j := jobPlan{caseIdx: i, kind: k, panicAt: -1}
				switch k {
				case jobDeadline:
					j.deadlineMs = 1 + int64(p.rng.Float64()*1.5*c.seqNs/1e6)
				case jobPanic:
					if c.kind == "list" {
						j.kind = jobNormal
					} else {
						j.panicAt = p.rng.Intn(c.wantValid)
					}
				}
				p.deck = append(p.deck, j)
			}
		}
		p.rng.Shuffle(len(p.deck), func(a, b int) { p.deck[a], p.deck[b] = p.deck[b], p.deck[a] })
	}
	j := p.deck[len(p.deck)-1]
	p.deck = p.deck[:len(p.deck)-1]
	return j
}

// expected reports whether a job of this kind may end in st.
func expected(kind string, st serve.Status) bool {
	switch kind {
	case jobNormal:
		return st.State == "done"
	case jobDeadline:
		return st.State == "done" || (st.State == "failed" && st.ErrorKind == "deadline")
	case jobCancel:
		return st.State == "canceled" || st.State == "done"
	case jobPanic:
		return st.State == "failed" && st.ErrorKind == "panic"
	}
	return false
}

// outcome names the terminal state for the per-layer shares.
func outcome(st serve.Status, ok bool) string {
	switch {
	case !ok:
		return "unexpected"
	case st.State == "done":
		return "done"
	case st.State == "canceled":
		return "canceled"
	}
	return st.ErrorKind // deadline or panic
}

// do submits one job over HTTP, cancels it when planned, follows its
// stream to a terminal status and records the outcome in t.
func (s *server) do(p jobPlan, rec *spanRec, t *tally) {
	c := s.cases[p.caseIdx]
	spec := serve.JobSpec{Kind: "native", Native: nativeName(c.kind),
		Args: map[string]float64{"case": float64(p.caseIdx)}, DeadlineMs: p.deadlineMs}
	if p.panicAt >= 0 {
		spec.Args["panic_at"] = float64(p.panicAt)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.add(c, nil, 0, err)
		return
	}
	opID := rec.newOp()
	opSpan := rec.begin(opID, 0, "op:"+p.kind+":"+c.key)
	defer opSpan.end()

	t0 := time.Now()
	sub := rec.begin(opID, opSpan.id, "serve.submit")
	id, code, err := s.submit(body)
	sub.end()
	submit := time.Since(t0)
	if err != nil || code != http.StatusAccepted {
		// Refused (429/503) and failed submissions count as failed.
		t.add(c, nil, 0, fmt.Errorf("submit %s: status %d: %v", c.key, code, err))
		return
	}
	if p.kind == jobCancel {
		if err := s.cancel(id); err != nil {
			t.add(c, nil, 0, err)
			return
		}
	}
	wait := rec.begin(opID, opSpan.id, "serve.wait")
	st, err := s.wait(id)
	wait.end()
	lat := time.Since(t0)
	if err != nil {
		t.add(c, nil, 0, err)
		return
	}
	ok := expected(p.kind, st)
	var bad error
	if !ok {
		bad = fmt.Errorf("%s job %s on %s ended %s/%s: %s", p.kind, id, c.key, st.State, st.ErrorKind, st.Error)
	} else if st.State == "done" && (st.Report == nil || st.Report.Valid != c.wantValid) {
		ok, bad = false, fmt.Errorf("%s job %s on %s: done without the full result", p.kind, id, c.key)
	}
	t.add(c, st.Report, lat, bad)

	t.mu.Lock()
	defer t.mu.Unlock()
	t.outcomes[outcome(st, ok)]++
	if st.Metrics != nil {
		t.addSnap(*st.Metrics)
	}
	t.submitMs = append(t.submitMs, ms(submit))
	if !st.Started.IsZero() {
		t.queueMs = append(t.queueMs, ms(st.Started.Sub(st.Submitted)))
		t.runMs = append(t.runMs, ms(st.Finished.Sub(st.Started)))
	}
	t.overheadMs = append(t.overheadMs, ms(lat-st.Finished.Sub(st.Submitted)))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (s *server) submit(body []byte) (id string, code int, err error) {
	resp, err := s.client.Post(s.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var acc struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&acc)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return acc.ID, resp.StatusCode, err
}

func (s *server) cancel(id string) error {
	req, err := http.NewRequest(http.MethodDelete, s.url+"/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cancel %s: status %d", id, resp.StatusCode)
	}
	return nil
}

// wait follows the job's NDJSON stream until a terminal status.
func (s *server) wait(id string) (serve.Status, error) {
	resp, err := s.client.Get(s.url + "/v1/jobs/" + id + "/stream")
	if err != nil {
		return serve.Status{}, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var st serve.Status
		if err := dec.Decode(&st); err != nil {
			return serve.Status{}, fmt.Errorf("stream %s: %w", id, err)
		}
		if st.State == "done" || st.State == "failed" || st.State == "canceled" {
			_, _ = io.Copy(io.Discard, resp.Body)
			return st, nil
		}
	}
}

// closedLoop runs serveClients clients, each submitting its next job
// only after the previous one ended, until d has passed; it returns the
// loop's wall time.  The loop runs in windows of windowLen; between
// windows, with the clients idle, every case's plain-Go loop is timed
// once.
func (s *server) closedLoop(seed int64, d time.Duration, mixed bool, rec *spanRec, t *tally) time.Duration {
	planners := make([]*planner, serveClients)
	for k := range planners {
		planners[k] = &planner{rng: rand.New(rand.NewSource(seed*31 + int64(k))), cases: s.cases, mixed: mixed}
	}
	var wall time.Duration
	for wall < d {
		t0 := time.Now()
		end := t0.Add(min(windowLen, d-wall))
		var wg sync.WaitGroup
		for _, p := range planners {
			wg.Add(1)
			go func(p *planner) {
				defer wg.Done()
				for time.Now().Before(end) {
					s.do(p.next(), rec, t)
				}
			}(p)
		}
		wg.Wait()
		win := time.Since(t0)
		wall += win
		sampleRefs(s.cases, rec)
		t.closeWindow(win)
	}
	return wall
}

// setupServe builds the cases and their references, starts the server
// and warms every key with warmRuns plain jobs.  The set-up time
// excludes the reference computation.
func setupServe(build func(seed int64, scale int) []*loopCase, seed int64, scale int, prev []*loopCase, rec *spanRec, t *tally) (*server, time.Duration, error) {
	t0 := time.Now()
	cases := build(seed, scale)
	setup := time.Since(t0)
	prepareAll(cases, prev, rec)

	t0 = time.Now()
	s, err := startServer(cases, whilepar.NewProfileStore())
	if err != nil {
		return nil, 0, err
	}
	for r := 0; r < warmRuns; r++ {
		for i := range cases {
			s.do(jobPlan{caseIdx: i, kind: jobNormal, panicAt: -1}, nil, t)
		}
	}
	return s, setup + time.Since(t0), nil
}
