package repro

import (
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/fabric"
)

// runSoloBaseline saturates HLF's non-replicated solo orderer with the
// Figure 7 small-cell workload shape and returns envelopes/second. Used by
// BenchmarkSoloOrdererBaseline as the no-replication ablation point.
func runSoloBaseline(measure time.Duration) (float64, error) {
	key, err := cryptoutil.GenerateKeyPair()
	if err != nil {
		return 0, err
	}
	solo, err := core.NewSoloOrderer(core.SoloConfig{
		BlockSize:      10,
		SigningWorkers: 16,
		Key:            key,
	})
	if err != nil {
		return 0, err
	}
	defer solo.Close()

	stream, err := solo.Deliver("bench", fabric.DeliverNewest())
	if err != nil {
		return 0, err
	}
	defer stream.Cancel()
	var delivered atomic.Uint64
	go func() {
		for b := range stream.Blocks() {
			delivered.Add(uint64(len(b.Envelopes)))
		}
	}()

	gen := bench.NewEnvelopeGen("bench", "solo-load", 40, 1)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			raw, _ := gen.Next()
			if solo.BroadcastRaw(raw) != fabric.StatusSuccess {
				return
			}
			// Closed loop against delivery so the signing pool, not an
			// unbounded queue, is the limiter.
			for delivered.Load()+2000 < gen.Sent() {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	time.Sleep(measure / 3) // warmup
	startCount := delivered.Load()
	start := time.Now()
	time.Sleep(measure)
	elapsed := time.Since(start)
	endCount := delivered.Load()
	close(stop)
	return float64(endCount-startCount) / elapsed.Seconds(), nil
}
