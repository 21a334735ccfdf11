package profile_test

import (
	"flag"
	"os"
	"testing"

	"futurelocality/internal/core"
)

// TestMain runs every test of the package under the replay check
// (core.ReplayCheckEnv): each schedule a cache model charges is replayed the
// full way too, and any difference per worker or in total fails the analysis
// that made it. Benchmarks run without it.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		os.Setenv(core.ReplayCheckEnv, "1")
	}
	os.Exit(m.Run())
}
