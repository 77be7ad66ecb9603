// Command vineworker runs a standalone TaskVine worker process that
// connects to a manager over TCP, serves its cache to peers, executes
// tasks, and hosts libraries. It is the multi-process deployment path;
// in-process workers (taskvine.Manager.SpawnLocalWorkers) are the
// single-process one.
//
// Usage:
//
//	vineworker -manager 127.0.0.1:9123 -id w001 -cores 32 -memory 65536
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/modlib"
	"repro/internal/worker"
)

func main() {
	managerAddr := flag.String("manager", "", "manager address host:port (required)")
	id := flag.String("id", "", "worker identifier (required)")
	cores := flag.Int("cores", 32, "cores to offer")
	memoryMB := flag.Int64("memory", 64<<10, "memory to offer (MB)")
	diskMB := flag.Int64("disk", 64<<10, "disk to offer (MB)")
	cluster := flag.String("cluster", "", "network locality group name")
	gflops := flag.Float64("gflops", 5.4, "machine compute rating")
	cacheBytes := flag.Int64("cache", 0, "cache capacity in bytes (0 = unlimited)")
	flag.Parse()

	if *managerAddr == "" || *id == "" {
		fmt.Fprintln(os.Stderr, "vineworker: -manager and -id are required")
		flag.Usage()
		os.Exit(2)
	}

	w := worker.New(worker.Config{
		ID:            *id,
		Resources:     core.Resources{Cores: *cores, MemoryMB: *memoryMB, DiskMB: *diskMB},
		Cluster:       *cluster,
		GFlops:        *gflops,
		CacheCapacity: *cacheBytes,
		Registry:      modlib.Standard(),
	})
	if err := w.Connect(*managerAddr); err != nil {
		fmt.Fprintf(os.Stderr, "vineworker: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("vineworker %s connected to %s (data server %s)\n", *id, *managerAddr, w.DataAddr())
	w.Wait()
}
