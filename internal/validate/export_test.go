package validate

// SetChildTables turns the pass's child tables and its skipping of
// attribute-less tags on or off for s; off, every child element resolves
// through Model.Child and every start tag goes through Model.Attrs.
func SetChildTables(s *State, on bool) { s.plain = !on }
