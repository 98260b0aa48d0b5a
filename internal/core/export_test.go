package core

// GenEig exposes the dense pencil eigensolver to the external test
// package, whose fixtures come from netgen decks through stamp.
var GenEig = genEig
