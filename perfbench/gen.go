package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"p2pstream"
)

// arrival is one generated requester: everything the program receives
// about it comes from here.
type arrival struct {
	ID    string
	Class p2pstream.Class
	// Offset is the requester's due first-request instant after the
	// round's time zero (virtual time).
	Offset time.Duration
	// Seed is the node's randomness seed.
	Seed int64
	// jitter is the state of the requester's backoff-jitter stream.
	jitter uint64
}

// population describes what a workload's generator draws.
type population struct {
	prefix string
	n      int
	// spread is the width of the window first requests fall in.
	spread time.Duration
	// class1Share is the share of class-1 requesters (the rest are class 2).
	class1Share float64
}

// roundSeed derives the input seed of one round of a run.
func roundSeed(seed int64, round int) int64 {
	return int64(splitmix(uint64(seed)*0x9e3779b97f4a7c15 + uint64(round) + 1))
}

// generate draws the round's requesters from seed: arrival offsets,
// classes, node seeds and backoff-jitter streams. The same seed gives the
// same arrivals. Draws are stratified so rounds differ in detail, not in
// load: requester i arrives at a uniform point of the i-th of n equal
// slices of the spread, and exactly round(n·class1Share) requesters are
// class 1, in shuffled order. Requesters are returned in due order.
func generate(seed int64, pop population) []arrival {
	rng := rand.New(rand.NewSource(seed))
	class1 := int(math.Round(float64(pop.n) * pop.class1Share))
	classes := make([]p2pstream.Class, pop.n)
	for i := range classes {
		classes[i] = 1
		if i >= class1 {
			classes[i] = 2
		}
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	out := make([]arrival, pop.n)
	for i := range out {
		out[i] = arrival{
			ID:     fmt.Sprintf("%s%d", pop.prefix, i),
			Class:  classes[i],
			Offset: time.Duration((float64(i) + rng.Float64()) / float64(pop.n) * float64(pop.spread)),
			Seed:   rng.Int63() | 1,
			jitter: rng.Uint64(),
		}
	}
	return out
}

// uniform returns the next value in [0, 1) of the requester's jitter
// stream.
func (a *arrival) uniform() float64 {
	a.jitter += 0x9e3779b97f4a7c15
	return float64(splitmix(a.jitter)>>11) / (1 << 53)
}

// splitmix is the splitmix64 finalizer.
func splitmix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
