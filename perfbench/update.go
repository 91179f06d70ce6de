package main

import (
	"math/rand"
	"time"
)

// updateReadEvery makes about one operation in ten a read: after a
// commit, a read follows with probability 1/9.
const updateReadEvery = 9

// runUpdate times the in-process write mix with selective reads on the
// small document.
func (b *bench) runUpdate() error {
	m := newMutator(b.cfg.seed, b.counts, "")
	b.muts = append(b.muts, m)
	rng := rand.New(rand.NewSource(b.cfg.seed + 1))
	if b.cfg.trace {
		if err := b.batteryProbe(); err != nil {
			return err
		}
	}
	// Warm-up: fills the plan and snapshot paths and lets the first
	// auto-checkpoints run.
	b.writeLoop(m, rng, b.share(0.05), updateReadEvery, &latencies{}, &latencies{})
	b.attempted, b.failed = 0, 0

	payload := m.payload
	reads, writes := &latencies{}, &latencies{}
	main, err := b.timedPhases(1, func(d time.Duration) (int64, error) {
		return b.writeLoop(m, rng, d, updateReadEvery, reads, writes), nil
	})
	if err != nil {
		return err
	}
	return b.endToEnd(main, reads, writes, main.written, m.payload-payload)
}
