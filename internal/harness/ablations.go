package harness

import (
	"fmt"

	"pgxsort/internal/baselines"
	"pgxsort/internal/comm"
	"pgxsort/internal/core"
	"pgxsort/internal/dist"
	"pgxsort/internal/transport"
)

// AblationInvestigator times and balance-checks the investigator — cuts
// at exact ranks — against cuts on keys alone on the duplicate-heavy
// distributions (core.Options.DisableInvestigator).
func AblationInvestigator(c Config) ([]Table, error) {
	c = c.WithDefaults()
	p := c.Procs[0]
	t := Table{
		ID:    "ablation-investigator",
		Title: fmt.Sprintf("Investigator on/off, p=%d", p),
		Header: []string{"distribution", "investigator", "total_ms",
			"imbalance", "max_part", "min_part"},
	}
	for _, kind := range []dist.Kind{dist.RightSkewed, dist.Exponential, dist.Constant} {
		parts := c.parts(kind, p)
		for _, disable := range []bool{false, true} {
			rep, err := c.runPGXD(parts, core.Options{DisableInvestigator: disable})
			if err != nil {
				return nil, err
			}
			minPart, maxPart := rep.MinMaxPart()
			label := "on"
			if disable {
				label = "off"
			}
			t.Rows = append(t.Rows, []string{
				kind.String(), label, ms(rep.Total),
				fmt.Sprintf("%.3f", rep.LoadImbalance()),
				fmt.Sprintf("%d", maxPart), fmt.Sprintf("%d", minPart),
			})
		}
	}
	t.Notes = append(t.Notes, "off = Figure 3b naive binary search on keys; on = exact ranks (Figure 3c's balance, within 1+ε)")
	return []Table{t}, nil
}

// AblationAsync compares the asynchronous overlapped exchange against the
// bulk-synchronous send-barrier-receive schedule (core.Options.SyncExchange).
func AblationAsync(c Config) ([]Table, error) {
	c = c.WithDefaults()
	t := Table{
		ID:     "ablation-async",
		Title:  "Exchange schedule: asynchronous overlap vs bulk-synchronous barrier",
		Header: []string{"procs", "async_ms", "sync_ms", "async_exchange_ms", "sync_exchange_ms"},
	}
	for _, p := range c.Procs {
		parts := c.parts(dist.Uniform, p)
		as, err := c.runPGXD(parts, core.Options{})
		if err != nil {
			return nil, err
		}
		sy, err := c.runPGXD(parts, core.Options{SyncExchange: true})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p),
			ms(as.Total), ms(sy.Total),
			ms(as.Steps[core.StepExchange]), ms(sy.Steps[core.StepExchange]),
		})
	}
	return []Table{t}, nil
}

// AblationTransport compares the zero-copy channel transport against real
// TCP loopback sockets.
func AblationTransport(c Config) ([]Table, error) {
	c = c.WithDefaults()
	t := Table{
		ID:     "ablation-transport",
		Title:  "Transport: in-process channels (RDMA-like) vs TCP loopback",
		Header: []string{"procs", "chan_ms", "tcp_ms", "tcp_penalty"},
	}
	for _, p := range c.Procs {
		parts := c.parts(dist.Uniform, p)
		ch, err := c.runPGXD(parts, core.Options{Transport: transport.KindChan})
		if err != nil {
			return nil, err
		}
		tc, err := c.runPGXD(parts, core.Options{Transport: transport.KindTCP})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p),
			ms(ch.Total), ms(tc.Total),
			fmt.Sprintf("%.2fx", float64(tc.Total)/float64(ch.Total)),
		})
	}
	t.Notes = append(t.Notes, "tcp serializes every entry and crosses the kernel; chan moves slices")
	return []Table{t}, nil
}

// Baselines compares all four sorting systems on a uniform dataset:
// PGX.D sample sort, Spark sortByKey, distributed bitonic, radix.
func Baselines(c Config) ([]Table, error) {
	c = c.WithDefaults()
	// Bitonic needs a power-of-two processor count.
	p := 1
	for p*2 <= c.Procs[0] {
		p *= 2
	}
	keys := dist.Gen{Kind: dist.Uniform, Seed: c.Seed}.Keys(c.N - c.N%p)
	// Radix buckets use the top bits; spread the domain across them.
	spread := make([]uint64, len(keys))
	for i, k := range keys {
		spread[i] = k << 43
	}
	parts := core.Blocks(spread, p)
	t := Table{
		ID:     "baselines",
		Title:  fmt.Sprintf("All sorters, uniform keys, p=%d", p),
		Header: []string{"system", "total_ms", "bytes_sent", "imbalance"},
	}

	pgxd, err := c.runPGXD(parts, core.Options{})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"pgxd-samplesort", ms(pgxd.Total),
		fmt.Sprintf("%d", pgxd.BytesSent), fmt.Sprintf("%.3f", pgxd.LoadImbalance())})

	sp, err := c.runSpark(parts)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"spark-sortByKey", ms(sp.Total),
		fmt.Sprintf("%d", sp.ShuffleBytes), fmt.Sprintf("%.3f", sp.LoadImbalance())})

	_, bit, err := baselines.BitonicSort(parts, comm.U64Codec{}, c.Transport)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"bitonic", ms(bit.Total),
		fmt.Sprintf("%d", bit.BytesSent), imbalanceOf(bit.PartSizes, bit.N)})

	_, rad, err := baselines.RadixSort(parts, c.Transport)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"radix", ms(rad.Total),
		fmt.Sprintf("%d", rad.BytesSent), imbalanceOf(rad.PartSizes, rad.N)})

	t.Notes = append(t.Notes,
		"bitonic ships entire local arrays every compare-split (paper §II);",
		"radix balance depends on key-bit entropy (paper §II)")
	return []Table{t}, nil
}

func imbalanceOf(sizes []int, n int) string {
	if n == 0 || len(sizes) == 0 {
		return "1.000"
	}
	maxPart := 0
	for _, s := range sizes {
		if s > maxPart {
			maxPart = s
		}
	}
	return fmt.Sprintf("%.3f", float64(maxPart)/(float64(n)/float64(len(sizes))))
}
