package dsi

// ZeroPagesClean reports whether the shared zero pages of the knowledge
// base still read all zero: nothing may write through them.
func ZeroPagesClean() bool {
	return zeroFramePage == framePage{} && zeroObjPage == objPage{}
}
