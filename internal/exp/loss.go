package exp

import (
	"fmt"
	"math/rand"
	"time"

	"tmesh/internal/assign"
	"tmesh/internal/eventsim"
	"tmesh/internal/ident"
	"tmesh/internal/keytree"
	"tmesh/internal/overlay"
	"tmesh/internal/recovery"
	"tmesh/internal/split"
	"tmesh/internal/vnet"
)

// LossPoint is one loss rate of the recovery sweep.
type LossPoint struct {
	// LossRate is the per-hop drop probability of the multicast.
	LossRate float64
	// RecoveredFraction is the share of users that fell back to server
	// unicast recovery.
	RecoveredFraction float64
	// ServerUnits is the total encryptions the server unicast.
	ServerUnits int
	// ServerUnitsPerRecovered is the average recovery cost per affected
	// user (bounded by the key-path length D+1).
	ServerUnitsPerRecovered float64
	// HopsDropped is the number of multicast hops lost.
	HopsDropped int
}

// RunLossSweep measures unicast recovery (footnote 1 / [31]) under
// increasing per-hop loss: one group, one churn interval, the same rekey
// message distributed at each loss rate.
func RunLossSweep(cfg AblationConfig, lossRates []float64) ([]LossPoint, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("exp: N must be >= 2, got %d", cfg.N)
	}
	if cfg.Assign.Params == (ident.Params{}) {
		cfg.Assign = assign.DefaultConfig()
	}
	if cfg.K == 0 {
		cfg.K = 4
	}
	for _, p := range lossRates {
		if p < 0 || p >= 1 {
			return nil, fmt.Errorf("exp: loss rate %v out of [0, 1)", p)
		}
	}
	net, err := vnet.NewGTITM(vnet.DefaultGTITMConfig(), cfg.N+1, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	dir, err := overlay.NewDirectory(cfg.Assign.Params, cfg.K, net, 0)
	if err != nil {
		return nil, err
	}
	assigner, err := assign.New(cfg.Assign, dir, rng)
	if err != nil {
		return nil, err
	}
	tree, err := keytree.New(cfg.Assign.Params, []byte("loss"), keytree.Opts{})
	if err != nil {
		return nil, err
	}
	var ids []ident.ID
	for i := 0; i < cfg.N; i++ {
		host := vnet.HostID(i + 1)
		id, _, err := assigner.AssignID(host)
		if err != nil {
			return nil, err
		}
		if err := dir.Join(overlay.Record{Host: host, ID: id}); err != nil {
			return nil, err
		}
		ids = append(ids, id)
	}
	if _, err := tree.Batch(ids, nil); err != nil {
		return nil, err
	}
	nLeave := cfg.ChurnLeaves
	if nLeave == 0 {
		nLeave = cfg.N / 8
	}
	leavers := make([]ident.ID, nLeave)
	for i, p := range rng.Perm(cfg.N)[:nLeave] {
		leavers[i] = ids[p]
	}
	for _, id := range leavers {
		if err := dir.Leave(id); err != nil {
			return nil, err
		}
	}
	msg, err := tree.Batch(nil, leavers)
	if err != nil {
		return nil, err
	}

	// Each loss rate derives its own drop RNG from the configured seed
	// and only reads the churned group, so the rates run concurrently.
	out := make([]LossPoint, len(lossRates))
	err = forEachUnit(len(lossRates), workersFor(cfg.Parallel, len(lossRates)), cfg.Progress, func(i int) error {
		p := lossRates[i]
		lossRng := rand.New(rand.NewSource(cfg.Seed ^ int64(p*1e6) ^ 0x5bd1e995))
		var drop func(from, to vnet.HostID) bool
		if p > 0 {
			drop = func(from, to vnet.HostID) bool { return lossRng.Float64() < p }
		}
		// One unicast attempt per user, never lost: the sweep measures
		// the paper's limited recovery, not the ladder's retry rungs.
		sim := eventsim.New()
		res, err := recovery.DistributeLadder(recovery.LadderConfig{
			Dir:         dir,
			Sim:         sim,
			Mode:        split.PerEncryption,
			Timeout:     time.Second,
			RetryBase:   time.Second,
			RetryMax:    time.Second,
			RetryBudget: 1,
			DropHop:     drop,
		}, msg)
		if err != nil {
			return err
		}
		sim.Run()
		res.Finish()
		pt := LossPoint{
			LossRate:    p,
			ServerUnits: res.ServerUnits,
			HopsDropped: res.Multicast.Dropped,
		}
		if n := dir.Size(); n > 0 {
			pt.RecoveredFraction = float64(len(res.Recovered)) / float64(n)
		}
		if len(res.Recovered) > 0 {
			pt.ServerUnitsPerRecovered = float64(res.ServerUnits) / float64(len(res.Recovered))
		}
		out[i] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
