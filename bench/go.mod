module gametree/bench

go 1.22

require gametree v0.0.0

replace gametree => ../
