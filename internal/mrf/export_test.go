package mrf

// PostingsBuilt reports whether SharedPostings has run on m. Tests only;
// not synchronized with a concurrent first build.
func (m *MRF) PostingsBuilt() bool { return m.search.post.off != nil }
