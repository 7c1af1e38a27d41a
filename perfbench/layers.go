package main

// layerMetrics derives the per-layer metrics of one traced operation from
// its spans and from the public counters the layers returned. Counts are
// summed over the operation's flows; metrics of a layer the workload does
// not exercise read 0. metrics.json describes each one.
func layerMetrics(res *opResult, ss spans, wall float64, workers, jobs int) map[string]float64 {
	m := make(map[string]float64)
	var nets, reconciled, largest, invalid, reused, rerouted float64
	var routeS, orderS, refineS float64
	var resolves, waves, maxWave, unfixable, relaxed, accepted float64
	var binds, loads, edits, rollbacks, engJobs, tasks, engWaves float64
	var violations, shields, wlMM, areaMM2 float64
	var lookups, hits, dense, overflow float64
	for _, o := range res.outcomes {
		nets += float64(o.TotalNets)
		reconciled += float64(o.Route.Reconciled)
		largest = max(largest, float64(o.Route.LargestComponent))
		invalid += float64(o.ECO.TilesInvalid)
		reused += float64(o.ECO.NetsReused)
		rerouted += float64(o.ECO.NetsRerouted)
		routeS += o.Phases.Route.Seconds()
		orderS += o.Phases.Order.Seconds()
		refineS += o.Phases.Refine.Seconds()
		resolves += float64(o.Refinements)
		waves += float64(o.Refine.Waves)
		maxWave = max(maxWave, float64(o.Refine.MaxWave))
		unfixable += float64(o.Unfixable)
		relaxed += float64(o.Refine.Relaxed)
		accepted += float64(o.Refine.Accepted)
		binds += float64(o.Eval.Binds)
		loads += float64(o.Eval.Loads)
		edits += float64(o.Eval.Edits)
		rollbacks += float64(o.Eval.Rollbacks)
		engJobs += float64(o.Engine.Jobs)
		tasks += float64(o.Engine.Tasks)
		engWaves += float64(o.Engine.Waves)
		violations += float64(o.Violations)
		shields += float64(o.Shields)
		wlMM += float64(o.TotalWL) / 1e3
		areaMM2 += o.Area.Product() / 1e6
		// The pair cache is shared by every cell of a batch, so its
		// counters are cumulative: keep the latest (largest) snapshot.
		if l := float64(o.Cache.Hits + o.Cache.Misses); l >= lookups {
			lookups, hits = l, float64(o.Cache.Hits)
			dense, overflow = float64(o.Cache.Dense), float64(o.Cache.Overflow)
		}
	}

	// A flow's drain waits count as children of its own lane's spans, so
	// the artifact lookup that routed does not claim the drain as its own.
	waits := ss.drainWaits()
	ss = append(ss[:len(ss):len(ss)], waits...)

	m["route.phase_s"] = routeS
	m["route.seed_s"] = ss.self("router seeding")
	m["route.drain_s"] = waits.sum(func(*span) bool { return true })
	m["route.reconcile_s"] = ss.self("reconcile")
	m["route.merge_s"] = ss.self("delta merge")
	m["route.extract_s"] = ss.self("tree extraction")
	m["route.reconciled_nets"] = reconciled
	m["route.rip_ratio"] = ratio(reconciled, nets)
	m["route.largest_component"] = largest
	m["route.eco_invalidate_s"] = ss.self("eco invalidate")
	m["route.eco_invalid_tiles"] = invalid
	m["route.eco_reuse_ratio"] = ratio(reused, reused+rerouted)

	m["core.order_s"] = orderS
	m["core.refine_s"] = refineS
	m["core.wave_s"] = ss.sum(named("repair wave"))
	m["core.barrier_s"] = ss.sum(named("barrier update"))
	m["core.pass2_s"] = ss.sum(named("pass 2: speculate")) + ss.sum(named("pass 2: accept"))
	m["core.resolves"] = resolves
	m["core.waves"] = waves
	m["core.max_wave"] = maxWave
	m["core.unfixable"] = unfixable
	m["core.pass2_relaxed"] = relaxed
	m["core.pass2_accept_ratio"] = ratio(accepted, relaxed)

	m["sino.binds"] = binds
	m["sino.loads"] = loads
	m["sino.edits"] = edits
	m["sino.rollbacks"] = rollbacks
	m["sino.binds_per_solve"] = ratio(binds, engJobs)
	m["sino.rollback_ratio"] = ratio(rollbacks, edits)

	m["engine.jobs"] = engJobs
	m["engine.tasks"] = tasks
	m["engine.waves"] = engWaves
	m["engine.busy_s"] = ss.sum(onWorker)
	m["engine.utilization"] = ratio(m["engine.busy_s"], float64(workers)*wall)

	m["keff.lookups"] = lookups
	m["keff.hit_ratio"] = ratio(hits, lookups)
	m["keff.overflow_ratio"] = ratio(overflow, dense+overflow)
	m["keff.resident_geoms"] = dense + overflow

	isLoad := named("artifact-load")
	m["artifact.lookup_s"] = ss.self("artifact lookup")
	m["artifact.hits"] = float64(res.art.Hits)
	m["artifact.misses"] = float64(res.art.Misses)
	m["artifact.hit_ratio"] = ratio(float64(res.art.Hits), float64(res.art.Hits+res.art.Misses))
	m["artifact.disk_load_s"] = ss.sum(isLoad)
	m["artifact.disk_hits"] = float64(res.art.Disk.Hits)
	m["artifact.disk_corrupt"] = float64(res.art.Disk.Corrupt)
	m["artifact.disk_bytes"] = ss.argSum(func(s *span) bool { return isLoad(s) && s.args["hit"] == 1 }, "bytes")

	if res.cells != nil {
		var cellS, waits, warm []float64
		var busy float64
		for i, c := range res.cells {
			cellS = append(cellS, c.Outcome.Runtime.Seconds())
			busy += c.Outcome.Runtime.Seconds()
			waits = append(waits, res.starts[i].Seconds())
			warm = append(warm, c.WarmHitRate())
		}
		m["sched.cell_s"] = median(cellS)
		m["sched.queue_wait_s"] = median(waits)
		m["sched.occupancy"] = ratio(busy, float64(jobs)*wall)
		m["sched.warm_hit_ratio"] = median(warm)
	}

	m["report.violations"] = violations
	m["report.shields"] = shields
	m["report.wirelength_mm"] = wlMM
	m["report.area_mm2"] = areaMM2
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
