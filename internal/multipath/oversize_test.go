package multipath

import (
	"runtime"
	"testing"
	"time"

	"cronets/internal/obs"
	"cronets/internal/pipe"
)

// TestOversizedFrameAllocatesNothing: a malicious data frame claiming a
// 0xFFFFFFFF-byte payload must kill the subflow BEFORE any buffer is
// fetched — no pool Get, and no multi-gigabyte heap allocation.
func TestOversizedFrameAllocatesNothing(t *testing.T) {
	sConns, rConns := tcpPairs(t, 1)
	r, err := NewReceiver(rConns, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	poolReg := obs.NewRegistry()
	pipe.InstrumentPool(poolReg)
	poolGets := func() int64 {
		snap := poolReg.Snapshot()
		return snap["cronets_pipe_pool_hits_total"].(int64) + snap["cronets_pipe_pool_misses_total"].(int64)
	}
	before := poolGets()
	var msBefore runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)

	hdr := header{typ: frameData, n: 0xFFFFFFFF}.put(make([]byte, headerSize))
	if _, err := sConns[0].Write(hdr); err != nil {
		t.Fatal(err)
	}

	// The receiver must reject the frame and tear the subflow down; with a
	// single subflow the channel reports all-dead to Read.
	readErr := make(chan error, 1)
	go func() {
		buf := make([]byte, 16)
		_, err := r.Read(buf)
		readErr <- err
	}()
	select {
	case err := <-readErr:
		if err != ErrAllSubflowsDead {
			t.Fatalf("Read = %v, want ErrAllSubflowsDead", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver did not reject the oversized frame")
	}
	// The sender-side socket sees the receiver's close.
	_ = sConns[0].SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := sConns[0].Read(make([]byte, 1)); err == nil {
		t.Fatal("subflow still open after oversized frame")
	}

	if gets := poolGets() - before; gets != 0 {
		t.Errorf("pool served %d Gets for an oversized frame, want 0", gets)
	}
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	if delta := msAfter.TotalAlloc - msBefore.TotalAlloc; delta > 1<<20 {
		t.Errorf("oversized frame cost %d heap bytes, want < 1 MiB", delta)
	}
}
