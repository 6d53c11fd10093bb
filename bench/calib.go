package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a share of a host whose other tenants change its
// speed: the same pass of the same ops took from 2.5 s to 4.0 s within a
// quarter of an hour, and the speed drifts over minutes, longer than a
// run, so no statistic over one run's passes removes it. Every pass
// therefore measures the host's speed while it runs, by timing fixed
// kernels of the benchmark's own code in the gaps between its ops, and
// its times are scaled to a reference speed. The engine's code is not in
// the kernels, so a change to the engine moves the scaled times as much as
// the raw ones.
//
// Each kind of contention slows each kind of code by its own amount, so
// the probe times four kinds and takes their geometric mean. Of seven
// kernels tried, this set tracked the engine best: over 190 passes of
// coverage-fuzz and paper-grid, scaling cut the standard deviation of the
// log pass time from 0.061-0.076 to 0.044-0.045.

// probeRefS is the geometric mean of the kernels' mean times on the 2-core
// Xeon VM the benchmark was written on, at its usual speed.
const probeRefS = 0.0005

const (
	ringLen   = 1 << 20 // the chase kernel's ring: 4 MiB, more than a core's private caches
	ringBytes = ringLen * 4
	sortLen   = 1 << 13
	progLen   = 1 << 12
)

// kernels are the probe's kernels. Each does a fixed amount of work and
// returns a value that depends on all of it.
var kernels = []func(*speedProbe) uint64{
	(*speedProbe).chase,
	(*speedProbe).ilp,
	(*speedProbe).sort,
	(*speedProbe).interp,
}

// speedProbe samples the host's speed. The ring is mapped outside the Go
// heap, so the collector neither scans it nor counts it when it paces
// itself, and no kernel allocates. Fleet clients sample concurrently; a
// sample holds the lock.
type speedProbe struct {
	mapped        []byte
	ring          []uint32 // one cycle through every index, over mapped
	unsorted, buf []uint64 // the sort kernel's input and work area
	prog          []uint8  // the interp kernel's program

	mu    sync.Mutex
	times [][]float64 // per kernel, every sample's time in seconds
	spent time.Duration
	sink  uint64
}

// newSpeedProbe builds the ring with Sattolo's shuffle, which yields a
// single cycle, and draws the sort input and the interpreted program.
func newSpeedProbe() (*speedProbe, error) {
	mapped, err := syscall.Mmap(-1, 0, ringBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("map the speed probe's ring: %w", err)
	}
	s := &speedProbe{
		mapped: mapped,
		ring:   unsafe.Slice((*uint32)(unsafe.Pointer(&mapped[0])), ringLen),
		buf:    make([]uint64, sortLen),
		times:  make([][]float64, len(kernels)),
	}
	for i := range s.ring {
		s.ring[i] = uint32(i)
	}
	x := uint64(12345)
	for i := ringLen - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		s.ring[i], s.ring[j] = s.ring[j], s.ring[i]
	}
	for i := 0; i < sortLen; i++ {
		x = xorshift(x)
		s.unsorted = append(s.unsorted, x)
	}
	for i := 0; i < progLen; i++ {
		x = xorshift(x)
		s.prog = append(s.prog, uint8(x%8))
	}
	return s, nil
}

// close unmaps the ring.
func (s *speedProbe) close() {
	s.ring = nil
	_ = syscall.Munmap(s.mapped) // fails only for a range that was never mapped
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// chase follows 16k dependent loads through the ring, which the ops
// between samples have pushed out of the caches.
func (s *speedProbe) chase() uint64 {
	p := uint32(s.sink % ringLen)
	for i := 0; i < 1<<14; i++ {
		p = s.ring[p]
	}
	return uint64(p)
}

// ilp runs four independent arithmetic chains, which keep several
// execution units busy at once.
func (s *speedProbe) ilp() uint64 {
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < 1<<17; i++ {
		a = a*6364136223846793005 + 1
		b = b*2862933555777941757 + 3
		c ^= c << 7
		c ^= c >> 9
		d += a ^ b
	}
	return a + b + c + d
}

// sort sorts a copy of 8k random words: compares, swaps and branches that
// depend on the data.
func (s *speedProbe) sort() uint64 {
	copy(s.buf, s.unsorted)
	slices.Sort(s.buf)
	return s.buf[sortLen/2]
}

// interp runs a random program of a tiny register machine for 64k steps:
// an indirect dispatch per step and jumps that depend on the data.
func (s *speedProbe) interp() uint64 {
	var r [4]uint64
	r[0] = 1
	pc := 0
	for i := 0; i < 1<<16; i++ {
		switch s.prog[pc] {
		case 0:
			r[1] += r[0]
		case 1:
			r[2] ^= r[1] << 3
		case 2:
			r[3] = r[2]*31 + 7
		case 3:
			if r[3]&1 == 1 {
				pc = int(r[3] % progLen)
				continue
			}
		case 4:
			r[0] += r[3] >> 5
		case 5:
			r[1] = r[1]>>1 | r[0]<<63
		case 6:
			if r[2] > r[0] {
				pc = int((r[2] ^ r[0]) % progLen)
				continue
			}
		case 7:
			r[3] -= r[0]
		}
		if pc++; pc == progLen {
			pc = 0
		}
	}
	return r[0] ^ r[1] ^ r[2] ^ r[3]
}

// sample times each kernel once.
func (s *speedProbe) sample() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, run := range kernels {
		start := time.Now()
		s.sink += run(s)
		d := time.Since(start)
		s.times[k] = append(s.times[k], d.Seconds())
		s.spent += d
	}
}

// scale is the factor that turns times measured while the samples were
// taken into times at the reference speed: the reference over the
// geometric mean of the kernels' mean times.
func (s *speedProbe) scale() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.times[0]) == 0 {
		return 1
	}
	var logSum float64
	for _, ts := range s.times {
		logSum += math.Log(mean(ts))
	}
	return probeRefS / math.Exp(logSum/float64(len(s.times)))
}

// time is the time spent sampling.
func (s *speedProbe) time() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spent
}
