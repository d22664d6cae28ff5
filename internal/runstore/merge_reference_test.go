package runstore

import (
	"slices"
)

// referencePlanMerge is the index pass Merge ran before its sources were
// read side by side, kept as the reference planMerge is held to: one
// source after another, every entry folded into a map of whole entries,
// the winner lists rebuilt from that map and sorted. Keep it independent
// of planMerge — it shares only the readers and canonicalCompare.
func referencePlanMerge(srcs []string) (*mergePlan, MergeStats, error) {
	var ms MergeStats
	ms.Sources = len(srcs)
	plan := &mergePlan{}
	type winner struct {
		src int
		e   SourceEntry
	}
	global := make(map[string]winner)
	total := 0
	for i, src := range srcs {
		r, err := OpenSource(src)
		if err != nil {
			plan.Close()
			return nil, ms, err
		}
		plan.sources = append(plan.sources, newMergeSource(r))
		for e, eerr := range r.Entries() {
			if eerr != nil {
				plan.Close()
				return nil, ms, eerr
			}
			k := e.Key()
			if prev, seen := global[k]; seen && prev.src != i && prev.e.Fp != e.Fp {
				ms.Conflicts = append(ms.Conflicts, Conflict{
					Key: k, Earlier: srcs[prev.src], Later: src,
				})
			}
			global[k] = winner{src: i, e: e}
		}
		info := r.Info()
		total += info.Records
		if info.Torn {
			ms.TornSources++
		}
	}
	for _, w := range global {
		s := plan.sources[w.src]
		s.winners = append(s.winners, w.e)
	}
	for _, s := range plan.sources {
		slices.SortFunc(s.winners, canonicalCompare)
	}
	ms.Kept = len(global)
	ms.Superseded = total - len(global)
	return plan, ms, nil
}

// planned is what an index pass decided, for a test outside the package
// (the archive formats register from one): each source's winners in
// output order, and the stats.
func planned(pass func([]string) (*mergePlan, MergeStats, error), srcs []string) ([][]SourceEntry, MergeStats, error) {
	plan, ms, err := pass(srcs)
	if err != nil {
		return nil, ms, err
	}
	defer plan.Close()
	winners := make([][]SourceEntry, len(plan.sources))
	for i, s := range plan.sources {
		winners[i] = s.winners
	}
	return winners, ms, nil
}

// PlanMerge runs Merge's index pass over srcs.
func PlanMerge(srcs []string) ([][]SourceEntry, MergeStats, error) {
	return planned(planMerge, srcs)
}

// ReferencePlanMerge runs the reference index pass over srcs.
func ReferencePlanMerge(srcs []string) ([][]SourceEntry, MergeStats, error) {
	return planned(referencePlanMerge, srcs)
}
