package main

import (
	"strings"
	"testing"
	"time"

	"pgxsort/internal/dist"
	"pgxsort/internal/failpoint"
)

func TestBuildConfigDefaults(t *testing.T) {
	addr, cfg, err := buildConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	if addr != ":7421" {
		t.Errorf("addr = %q", addr)
	}
	if cfg.Procs != 8 || cfg.Workers != 2 || cfg.Transport != "chan" {
		t.Errorf("engine defaults wrong: %+v", cfg)
	}
	if len(cfg.KeyTypes) != 0 {
		t.Errorf("keytypes should default empty (serve fills all three), got %v", cfg.KeyTypes)
	}
}

func TestBuildConfigFlags(t *testing.T) {
	addr, cfg, err := buildConfig([]string{
		"-addr", "127.0.0.1:9000", "-procs", "4", "-workers", "3",
		"-keytypes", "uint64,string", "-inflight", "3", "-tenant-inflight", "1",
		"-queue", "5", "-cache-mb", "8", "-job-timeout", "9s", "-max-keys", "1000",
	})
	if err != nil {
		t.Fatal(err)
	}
	if addr != "127.0.0.1:9000" || cfg.Procs != 4 || cfg.Workers != 3 {
		t.Errorf("basic flags wrong: %q %+v", addr, cfg)
	}
	if len(cfg.KeyTypes) != 2 || cfg.KeyTypes[0] != dist.KeyUint64 || cfg.KeyTypes[1] != dist.KeyString {
		t.Errorf("keytypes wrong: %v", cfg.KeyTypes)
	}
	if cfg.MaxInflight != 3 || cfg.TenantInflight != 1 || cfg.QueueDepth != 5 {
		t.Errorf("admission flags wrong: %+v", cfg)
	}
	if cfg.CacheBytes != 8<<20 || cfg.JobTimeout != 9*time.Second || cfg.MaxKeys != 1000 {
		t.Errorf("cache/limit flags wrong: %+v", cfg)
	}
}

func TestBuildConfigResilienceFlags(t *testing.T) {
	defer failpoint.Reset()
	_, cfg, err := buildConfig([]string{
		"-retry-attempts", "5", "-breaker-threshold", "2",
		"-breaker-cooldown", "10s", "-fallback-keys", "-1",
		"-failpoints", "serve/cache-put:error:1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.RetryAttempts != 5 || cfg.BreakerThreshold != 2 || cfg.BreakerCooldown != 10*time.Second {
		t.Errorf("retry/breaker flags wrong: %+v", cfg)
	}
	if cfg.FallbackKeys != -1 {
		t.Errorf("fallback-keys = %d, want -1 (disabled)", cfg.FallbackKeys)
	}
	if !failpoint.Active() {
		t.Error("-failpoints spec did not arm the registry")
	}
}

func TestBuildConfigRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad keytype", []string{"-keytypes", "int128"}, "unknown key type"},
		{"retired overlap flag", []string{"-overlap", "on"}, "not defined"},
		{"bad failpoint spec", []string{"-failpoints", "core/exchange"}, "failpoint"},
		{"listen without tcp", []string{"-listen", "127.0.0.1:7401"}, "-transport tcp"},
		{"listen count mismatch", []string{"-transport", "tcp", "-procs", "2", "-keytypes", "uint64", "-listen", "a:1"}, "1 addresses for 2"},
		{"tcp addrs need one keytype", []string{"-transport", "tcp", "-procs", "1", "-listen", "a:1"}, "exactly one domain"},
		{"stray args", []string{"extra"}, "unexpected arguments"},
	}
	for _, tc := range cases {
		_, _, err := buildConfig(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}
