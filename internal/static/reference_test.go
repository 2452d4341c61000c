package static

// solveFIFO is the differential oracle of the property tests: a plain FIFO
// pop loop that shares nothing with the epoch engine but the constraint
// operations, and never collapses a cycle. Without unification every queue
// entry is a token appended to its variable's pending suffix in queue
// order, so each pop processes exactly that variable's next pending token.
// Valid only while no cycle has been collapsed, that is, on a solver the
// epoch engine has never run on.
func (s *solver) solveFIFO() {
	for head := 0; head < len(s.queue); head++ {
		d := s.queue[head]
		s.iterations++
		st := s.state(d.v)
		// Triggers may extend this variable's own edge list while we
		// iterate, so re-check the length each step.
		for i := 0; i < len(st.edges); i++ {
			s.addTokenRep(st.edges[i], d.t)
		}
		// Mark delivered before running triggers so a trigger registering
		// further triggers on this variable does not re-fire for d.t, and
		// snapshot the trigger count: triggers registered during this loop
		// already saw d.t through the registration-time replay.
		st.delivered++
		n := len(st.triggers)
		for i := 0; i < n; i++ {
			st.triggers[i](d.t)
		}
	}
	s.queue = s.queue[:0]
}
