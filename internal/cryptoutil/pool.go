package cryptoutil

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrPoolClosed is returned by Sign calls issued after the pool was closed.
var ErrPoolClosed = errors.New("signing pool closed")

// signJob carries one digest to sign and the callback invoked with the
// resulting signature.
type signJob struct {
	digest Digest
	done   func(sig []byte, err error)
}

// SigningPool signs digests on a fixed set of worker goroutines. It models
// the "signing & sending threads" of the BFT-SMaRt ordering node
// (Figure 5 of the paper): block headers are produced sequentially by the
// node thread and handed to the pool, which parallelizes the signature
// generation (ECDSA in the paper, Ed25519 here). Figure 6 of the paper is a
// throughput sweep over the number of workers in this pool.
type SigningPool struct {
	key     *KeyPair
	jobs    chan signJob
	wg      sync.WaitGroup
	closed  atomic.Bool
	signed  atomic.Uint64
	workers int

	mu sync.Mutex // serializes Close against Sign enqueues
}

// NewSigningPool starts a pool with the given number of workers. The job
// queue is bounded at twice the worker count: producers block when all
// workers are busy, which provides natural backpressure from the signing
// stage to the block-cutting stage (the paper's node thread behaves the same
// way: it cannot outrun its signing pool indefinitely).
func NewSigningPool(key *KeyPair, workers int) (*SigningPool, error) {
	if key == nil {
		return nil, errors.New("signing pool requires a key pair")
	}
	if workers < 1 {
		return nil, fmt.Errorf("signing pool requires at least 1 worker, got %d", workers)
	}
	p := &SigningPool{
		key:     key,
		jobs:    make(chan signJob, workers*2),
		workers: workers,
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p, nil
}

func (p *SigningPool) worker() {
	defer p.wg.Done()
	for job := range p.jobs {
		sig, err := p.key.SignDigest(job.digest)
		if err == nil {
			p.signed.Add(1)
		}
		job.done(sig, err)
	}
}

// Sign enqueues digest for signing; done is invoked from a worker goroutine
// with the signature (or error). Sign blocks while the queue is full and
// returns ErrPoolClosed after Close.
func (p *SigningPool) Sign(digest Digest, done func(sig []byte, err error)) error {
	if done == nil {
		return errors.New("signing pool: nil completion callback")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed.Load() {
		return ErrPoolClosed
	}
	p.jobs <- signJob{digest: digest, done: done}
	return nil
}

// SignSync signs digest and waits for the result.
func (p *SigningPool) SignSync(digest Digest) ([]byte, error) {
	type result struct {
		sig []byte
		err error
	}
	ch := make(chan result, 1)
	if err := p.Sign(digest, func(sig []byte, err error) {
		ch <- result{sig: sig, err: err}
	}); err != nil {
		return nil, err
	}
	res := <-ch
	return res.sig, res.err
}

// Workers returns the number of worker goroutines.
func (p *SigningPool) Workers() int {
	return p.workers
}

// Signed returns the total number of signatures generated so far. The
// Figure 6 harness samples this counter to compute signatures/second.
func (p *SigningPool) Signed() uint64 {
	return p.signed.Load()
}

// Close stops accepting work, waits for in-flight jobs to finish, and
// releases the workers. Close is idempotent.
func (p *SigningPool) Close() {
	p.mu.Lock()
	if p.closed.Swap(true) {
		p.mu.Unlock()
		return
	}
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}
