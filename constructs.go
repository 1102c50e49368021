package whilepar

import (
	"context"
	"fmt"

	"whilepar/internal/cancel"
	"whilepar/internal/doacross"
	"whilepar/internal/genrec"
	"whilepar/internal/list"
	"whilepar/internal/mem"
	"whilepar/internal/speculate"
	"whilepar/internal/window"
)

// This file exposes the remaining parallel constructs the paper
// proposes: WHILE-DOACROSS (pipelined execution of loops whose
// dispatcher — or body — carries honoured cross-iteration dependences),
// strip-mined speculation, and the Harrison-style chunked-list method.

// DoacrossSync provides post/wait synchronization between pipelined
// iterations.
type DoacrossSync = doacross.Sync

// DoacrossControl is a pipelined iteration's verdict.
type DoacrossControl = doacross.Control

// Doacross control verdicts.
const (
	DoacrossContinue = doacross.Continue
	DoacrossQuit     = doacross.Quit
)

// DoacrossResult reports a pipelined execution.
type DoacrossResult = doacross.Result

// Doacross executes iterations [0, n) as a pipeline on procs virtual
// processors: the body may Wait on earlier iterations' Posts to honour
// cross-iteration dependences with explicit synchronization (the
// WHILE-DOACROSS construct).  Use DoacrossContext for cancellation.
func Doacross(n, procs int, body func(i, vpn int, s *DoacrossSync) DoacrossControl) DoacrossResult {
	res, err := doacross.Run(context.Background(), n, doacross.Config{Procs: procs}, body)
	if pe, ok := cancel.AsPanic(err); ok {
		panic(pe.Value)
	}
	return res
}

// DoacrossContext is Doacross under a context: once ctx is done the
// pipeline stops issuing iterations, drains its in-flight posts, and
// returns the Result so far with ErrCanceled/ErrDeadline.  A panicking
// body is returned as ErrWorkerPanic instead of crashing the caller.
func DoacrossContext(ctx context.Context, n, procs int,
	body func(i, vpn int, s *DoacrossSync) DoacrossControl) (DoacrossResult, error) {
	return doacross.Run(ctx, n, doacross.Config{Procs: procs}, body)
}

// WhileDoacross pipelines a WHILE loop whose dispatcher must be
// evaluated sequentially: iteration i receives d(i) from its
// predecessor, advances the recurrence, hands d(i+1) off, and then runs
// its body concurrently with later iterations.  cont is the RI
// termination condition (nil = none); max bounds the space.  The body
// receives the virtual processor number executing it (for per-worker
// memory substrates).  It returns the number of valid iterations.
func WhileDoacross[D any](start D, next func(D) D, cont func(D) bool, max, procs int,
	body func(i, vpn int, d D) bool) int {
	res, err := doacross.RunWhile(context.Background(), start, next, cont, max,
		doacross.Config{Procs: procs}, body)
	if pe, ok := cancel.AsPanic(err); ok {
		panic(pe.Value)
	}
	return res.QuitIndex
}

// WhileDoacrossContext is WhileDoacross under a context; it returns the
// committed iteration count so far plus ErrCanceled/ErrDeadline when
// ctx fires mid-pipeline, or ErrWorkerPanic for a panicking body.
func WhileDoacrossContext[D any](ctx context.Context, start D, next func(D) D, cont func(D) bool,
	max, procs int, body func(i, vpn int, d D) bool) (int, error) {
	res, err := doacross.RunWhile(ctx, start, next, cont, max, doacross.Config{Procs: procs}, body)
	if err != nil {
		return res.Prefix, err
	}
	return res.QuitIndex, nil
}

// StripReport describes a strip-mined speculative execution.
type StripReport = speculate.StripReport

// StripPar / StripSeq are the per-strip runners of RunStripped.
type (
	StripPar = speculate.StripPar
	StripSeq = speculate.StripSeq
)

// SpecSpec re-exports the speculation spec for the strip-mined protocol.
type SpecSpec = speculate.Spec

// RunStripped executes a speculative loop strip by strip: each strip is
// checkpointed, run under fresh time-stamps and PD shadow structures,
// and committed or re-executed sequentially on its own — bounding the
// speculation memory by the strip size and containing the cost of a
// failed PD test to one strip (Sections 4, 5.1, 8.1).
func RunStripped(spec SpecSpec, total, strip int, par StripPar, seq StripSeq) (StripReport, error) {
	return RunStrippedContext(context.Background(), spec, total, strip, par, seq)
}

// RunStrippedContext is RunStripped under a context: the engine checks
// ctx at each strip boundary, and once ctx is done it stops issuing
// strips and returns the committed prefix (StripReport.Valid) together
// with ErrCanceled or ErrDeadline.  Committed strips are never rewound;
// an in-flight strip that surfaces the cancellation is restored from
// its checkpoint first.
func RunStrippedContext(ctx context.Context, spec SpecSpec, total, strip int,
	par StripPar, seq StripSeq) (StripReport, error) {
	if strip < 1 {
		return StripReport{}, fmt.Errorf("whilepar: strip size must be positive, got %d", strip)
	}
	return speculate.RunStrips(ctx, spec, 0, total, speculate.Strips{Size: strip}, par, seq)
}

// WindowedReport describes a sliding-window speculative execution.
type WindowedReport = speculate.WindowedReport

// WindowConfig configures the resource-controlled sliding window
// (Section 8.2): initial size, writes per iteration, and a memory budget
// (static or dynamic) the window adapts to.
type WindowConfig = window.Config

// RunWindowed executes a speculative loop under a sliding window: the
// live time-stamp memory is bounded by the window size times the writes
// per iteration — without strip mining's global synchronization points.
// body returns true when the iteration meets the termination condition;
// seq re-executes the loop if the PD test fails.
func RunWindowed(spec SpecSpec, n int, cfg WindowConfig, body speculate.WindowedBody, seq func() int) (WindowedReport, error) {
	return speculate.RunWindowedCtx(context.Background(), spec, n, cfg, body, seq)
}

// RunWindowedContext is RunWindowed under a context: ctx is observed at
// round boundaries; once done the engine keeps the committed position
// as WindowedReport.Valid and returns ErrCanceled or ErrDeadline.
func RunWindowedContext(ctx context.Context, spec SpecSpec, n int, cfg WindowConfig,
	body speculate.WindowedBody, seq func() int) (WindowedReport, error) {
	return speculate.RunWindowedCtx(ctx, spec, n, cfg, body, seq)
}

// ChunkedList is a Harrison-style list of contiguously allocated chunks
// with length headers (Section 10 related work).
type ChunkedList = list.Chunked

// BuildChunkedList builds an n-element chunked list.
func BuildChunkedList(n, chunkSize int, f func(i int) (val, work float64)) ChunkedList {
	return list.BuildChunked(n, chunkSize, f)
}

// RunChunked traverses a chunked list in parallel: a sequential prefix
// over the chunk headers assigns global offsets, then chunks are
// processed concurrently with direct indexing inside each chunk.  It
// returns the number of valid iterations.
func RunChunked(c ChunkedList, body ListBody, procs int) int {
	res := genrec.Chunked(c, body, genrec.Config{Procs: procs})
	return res.Valid
}

// SharedArrays is a convenience for building speculation specs.
func SharedArrays(arrays ...*mem.Array) []*Array { return arrays }
