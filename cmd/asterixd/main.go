// Command asterixd runs the HTTP query service: an AsterixDB-style
// endpoint (POST /query/service, {"statement": "..."}) over an embedded
// engine instance, with observability endpoints at /admin/metrics
// (Prometheus), /admin/stats (JSON), and /debug/pprof/.
//
// Usage:
//
//	asterixd -data /var/lib/asterix -listen :19002 -partitions 4 -total-memory 256MiB
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"
	"time"

	"asterix/internal/core"
	"asterix/internal/server"
)

// parseBytes parses a byte-size string: a plain integer (bytes) or an
// integer with a KB/KiB/MB/MiB/GB/GiB suffix (decimal and binary suffixes
// are treated alike, binary).
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	upper := strings.ToUpper(s)
	for _, suf := range []struct {
		name string
		mult int64
	}{
		{"KIB", 1 << 10}, {"KB", 1 << 10},
		{"MIB", 1 << 20}, {"MB", 1 << 20},
		{"GIB", 1 << 30}, {"GB", 1 << 30},
	} {
		if strings.HasSuffix(upper, suf.name) {
			mult = suf.mult
			s = strings.TrimSpace(s[:len(s)-len(suf.name)])
			break
		}
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid byte size %q", s)
	}
	return n * mult, nil
}

func main() {
	var (
		dataDir    = flag.String("data", "./asterix-data", "data directory")
		listen     = flag.String("listen", ":19002", "listen address")
		partitions = flag.Int("partitions", 2, "storage partitions per dataset")
		totalMem   = flag.String("total-memory", "",
			"instance-wide memory budget, e.g. 256MiB; split across buffer cache, LSM memtables, and working memory")
		slowQuery = flag.Duration("slow-query", 500*time.Millisecond,
			"log statements slower than this (negative disables)")
	)
	flag.Parse()

	total, err := parseBytes(*totalMem)
	if err != nil {
		log.Fatalf("asterixd: -total-memory: %v", err)
	}

	eng, err := core.Open(core.Config{
		DataDir:     *dataDir,
		Partitions:  *partitions,
		TotalMemory: total,
	})
	if err != nil {
		log.Fatalf("asterixd: %v", err)
	}
	defer eng.Close()

	h := server.NewHandler(eng, server.Options{SlowQueryThreshold: *slowQuery})

	srv := server.NewHTTPServer(*listen, h)
	log.Printf("asterixd: query service listening on %s (data: %s, partitions: %d; metrics at /admin/metrics)",
		*listen, *dataDir, *partitions)
	if err := srv.ListenAndServe(); err != nil {
		log.Fatalf("asterixd: %v", err)
	}
}
