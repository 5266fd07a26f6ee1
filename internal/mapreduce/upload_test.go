package mapreduce

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mrapid/internal/topology"
	"mrapid/internal/yarn"
)

// Staging a job's artifacts charges their full lengths to HDFS but must not
// allocate them: every submission stages from one shared read-only buffer.
// Fresh per-job buffers cost 2 MB + 64 KB a call, about 100 MB over 50 calls.
func TestUploadArtifactsAllocation(t *testing.T) {
	rt := newTestRuntime(t, topology.A3, 4, yarn.NewStockScheduler())
	upload := func(name string) {
		t.Helper()
		done := false
		var err error
		rt.UploadArtifacts(&JobSpec{Name: name}, func(e error) { done, err = true, e })
		for !done && rt.Eng.Step() {
		}
		if !done || err != nil {
			t.Fatalf("upload %s: done=%v err=%v", name, done, err)
		}
	}
	upload("warm-up") // sizes the shared buffer if no earlier test did

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 50; i++ {
		upload(fmt.Sprintf("job-%d", i))
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Fatalf("50 uploads allocated %.1f MB, want < 4 MB", float64(got)/(1<<20))
	}

	spec := &JobSpec{Name: "job-49"}
	for path, want := range map[string]int64{JarPath(spec): rt.Params.JobJarBytes, ConfPath(spec): rt.Params.JobConfBytes} {
		f, err := rt.DFS.Lookup(path)
		if err != nil {
			t.Fatal(err)
		}
		if f.Size() != want {
			t.Fatalf("%s is %d bytes, want %d", path, f.Size(), want)
		}
	}
}

// Runtimes on different goroutines share the staging buffer; growing it
// for one must not race with, or change, the bytes handed to another.
func TestStagingBytesConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				n := int64(1+(g*50+i)%97) << 10
				b := stagingBytes(n)
				if int64(len(b)) != n || int64(cap(b)) != n {
					t.Errorf("stagingBytes(%d): len %d cap %d", n, len(b), cap(b))
					return
				}
				if !bytes.Equal(b, make([]byte, n)) {
					t.Errorf("stagingBytes(%d) returned non-zero bytes", n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
