// The benchmark is a module of its own so that the root module's build
// and test commands never compile it; the path prefix "ollock/" is what
// lets it import ollock/internal/... packages.
module ollock/bench

go 1.22

require ollock v0.0.0

replace ollock => ../
