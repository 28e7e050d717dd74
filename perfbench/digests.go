package main

// Digests of the default-seed outputs, pinned from the code this
// benchmark was written against. A pass or run at seed 1 must match them
// as well as the serial reference made at set-up.
const (
	// pinnedSuiteSHA256 is the sha256 of `fdbench -run all -quick -seed 1`.
	pinnedSuiteSHA256 = "48f8263f7571ad1829cbb5cdaa9e081b0086c6f7dc36fdb9203fca2ec270eb72"
	// pinnedMillionSHA256 is resultDigest of the million preset at seed 1.
	pinnedMillionSHA256 = "0fa79fefb91f9da75fa6d9d9c62764e98889676c2dab5815f9ed6b381d37c427"
)
