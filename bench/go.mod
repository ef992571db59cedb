module ml4all/bench

go 1.24

require ml4all v0.0.0

replace ml4all => ../
