package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// refNominal is the reference kernel's time at the reference speed. Timed
// runs scale every time metric by refNominal over the kernel time measured
// around the same stretch of work, so their figures read as milliseconds
// (or ops per second) on a machine where the kernel takes refNominal.
//
// The host of a shared VM changes speed by up to 1.7x for seconds at a time
// (a fixed sha256 loop ran at 900 and at 1560 iterations per half second
// within one minute, nothing else running in the VM). Over one minute of
// decode-hot and decode-fresh blocks the kernel's time correlated 0.80 and
// 0.85 with the block times, and block time over kernel time varied about
// a third as much as block time alone.
const refNominal = 4 * time.Millisecond

// refKernel is fixed, allocation-free work shaped like the server's:
// integer formatting as in JSON encoding, sha256 digests, map lookups and
// dependent loads through a table larger than the L2 cache. It uses only
// the standard library, so no change to the repository changes its time.
// It allocates nothing, and its tables live in an anonymous mapping outside
// the Go heap, so it neither runs the GC nor moves the program's heap goal.
type refKernel struct {
	mem   []byte // the anonymous mapping behind data and chain
	buf   []byte
	data  []byte
	table map[uint32]uint32
	chain []uint32
	sink  uint32
}

const (
	refDataBytes = 64 << 10
	refChainLen  = 1 << 19 // 2 MiB of uint32
	refTableLen  = 1024
)

func newRefKernel() (*refKernel, error) {
	mem, err := syscall.Mmap(-1, 0, refDataBytes+4*refChainLen,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference kernel mapping: %w", err)
	}
	rng := rand.New(rand.NewSource(1))
	k := &refKernel{
		mem:   mem,
		buf:   make([]byte, 0, 16<<10),
		data:  mem[:refDataBytes],
		table: make(map[uint32]uint32, refTableLen),
		chain: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[refDataBytes])), refChainLen),
	}
	rng.Read(k.data)
	for i := uint32(0); i < refTableLen; i++ {
		k.table[i*2654435761] = i
	}
	// Sattolo's shuffle: one cycle through the whole chain.
	for i := range k.chain {
		k.chain[i] = uint32(i)
	}
	for i := len(k.chain) - 1; i > 0; i-- {
		j := rng.Intn(i)
		k.chain[i], k.chain[j] = k.chain[j], k.chain[i]
	}
	return k, nil
}

// release unmaps the kernel's tables.
func (k *refKernel) release() { syscall.Munmap(k.mem) }

// run does the fixed work once and returns its wall time.
func (k *refKernel) run() time.Duration {
	start := time.Now()
	for r := uint32(0); r < 8; r++ {
		k.buf = k.buf[:0]
		for i := uint32(0); i < 2000; i++ {
			k.buf = strconv.AppendUint(k.buf, uint64(i*7919+r), 10)
			k.buf = append(k.buf, ',')
		}
		sum := sha256.Sum256(k.data)
		k.sink += uint32(sum[0]) + uint32(len(k.buf))
		for i := uint32(0); i < 4*refTableLen; i++ {
			k.sink += k.table[(i%refTableLen+r)*2654435761]
		}
		x := k.sink % uint32(len(k.chain))
		for i := 0; i < 4096; i++ {
			x = k.chain[x]
		}
		k.sink += x
	}
	return time.Since(start)
}

// scale is refNominal over the mean of two kernel times bracketing a
// stretch of work.
func scale(before, after time.Duration) float64 {
	return 2 * float64(refNominal) / float64(before+after)
}
