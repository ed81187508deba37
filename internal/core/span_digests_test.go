package core

// spanDigests holds each span-equivalence script's stream digest, keyed
// by test name (see equivRun). Each was recorded at commit a4fb974 from
// the span path and from the tuple-at-a-time reference path, with and
// without -tags purego; all four digests of every script were equal.
var spanDigests = map[string]string{
	"TestSpanEquivalenceAggregateKinds/count":                 "682d953151473a7cb22b9031baf47864dc7ed12c146fce1be306bdf9855da226", // 42 results
	"TestSpanEquivalenceAggregateKinds/sum":                   "d3e56828888b26a0ff4d045b3d5af339d29b411b11e4c4b2b0ac652467adb8c3", // 42 results
	"TestSpanEquivalenceAggregateKinds/avg":                   "d5de6642ea23ad8722ad29d2b9ea2b979816b6c20fccb21c5f5557c417dfa0a0", // 42 results
	"TestSpanEquivalenceAggregateKinds/min":                   "2132c142b2cb17810dc82bdcf30730e503683e7e74f47b0fc0728486f126997e", // 42 results
	"TestSpanEquivalenceAggregateKinds/max":                   "638be0a8c129a838d0216a2dc7139b8b1dfaa8c04fe707ac7522081c7f4ece34", // 42 results
	"TestSpanEquivalenceAggregateKinds/var":                   "35d46cad92f103f13967ac0911f8717c437825aa64a1031cf6dcc44526123979", // 42 results
	"TestSpanEquivalenceAggregateKinds/stddev":                "b4861bb9c7c608e0de1421484e87406bc244192b4851b3df891f10ce730feb1d", // 42 results
	"TestSpanEquivalenceVarOnFloats":                          "b13a90ed4ea2ec8c3b49480fe347619684d977975354e1cdf0365aec9c226c25", // 34 results
	"TestSpanEquivalenceSummary/k=0":                          "e26f61b056a30aa42a961436f0c3b1bdd28695ee18ab607e052007f77152e64d", // 36 results
	"TestSpanEquivalenceSummary/k=3":                          "c7c48f6e36b70cc21e323d91e5b792bea0586868d77e53f089bf42b1744b0b95", // 36 results
	"TestSpanEquivalenceSummary/k=25":                         "7ef4c9893692d03874b8df74614d284814cb2327d86beebe077a9e7c6bf00a9f", // 36 results
	"TestSpanEquivalenceSummary/k=400":                        "e547fbc74e3a3d5be47b3110e31c0e819dc1c910e5690111a876a8afb2cb3c20", // 36 results
	"TestSpanEquivalenceValueOrder":                           "00183fd7cfba47c0ec3116555eeeadee2322881643cf5da1fce20fb7d3f1b5cd", // 32 results
	"TestSpanEquivalenceFiltered/scan":                        "597b7b5f75472b75b470ee305712e21020389835d6d2493a386edf25ef32b7fd", // 19 results
	"TestSpanEquivalenceFiltered/aggregate":                   "e45595eb361d0e937a157c0649f5eef94cfa927fdc301a1d4659282f6e59a782", // 19 results
	"TestSpanEquivalenceGroupBy":                              "c9620faa34479be28674124d2e5eac56e2a2816544a980e36d59006a052e6974", // 60 results
	"TestSpanEquivalenceJoin":                                 "f9c5ed45261b5f3e2ac1ff70fce9f47f39d190c169f0edde18186ddbe79327bb", // 64 results
	"TestSpanEquivalenceTableObject/scan":                     "52370930c8ba042f57e35ff03851745107a8aac5ba2f5d6be7e4759a98e06100", // 33 results
	"TestSpanEquivalenceTableObject/aggregate":                "cdde638c5ed93cff0d0e7d033c421a570f5fa3a475ff52bed90d6abb19d76cec", // 33 results
	"TestSpanEquivalenceTableObject/summary":                  "6b1ffee829aebc86d326287d13c87f36c3812ed0512779d19cc16979f84b9225", // 33 results
	"TestSpanEquivalenceRandomScript/seed=0":                  "351650b18f15d073076abb55a32522a420a8c29205713eb8c9a4b251db65a71d", // 84 results
	"TestSpanEquivalenceRandomScript/seed=1":                  "e0b1929e1b4e1a9642c047b1c80a4df41e9acad246d7601f109c0c3c7df1a3c1", // 61 results
	"TestSpanEquivalenceRandomScript/seed=2":                  "5efe987218205a41afaff4e9ff642c11a072d2e162ed7787c44457d300ce0f54", // 116 results
	"TestSpanEquivalenceRandomScript/seed=3":                  "0106a8e6c98d164d2d7db7e7972c3aa2840ebd386a0ebb7a7845161390575b8b", // 129 results
	"TestSpanEquivalenceFusedAggregate/count":                 "ea1316c74f80b91ce85a1e45760bf8cc1a8bf3c38285490dd7ef54901aba2f65", // 40 results
	"TestSpanEquivalenceFusedAggregate/sum":                   "d65883ee3b09a069a9f730181f35040ebbae4f7850d6499ca57f488648d612ef", // 40 results
	"TestSpanEquivalenceFusedAggregate/avg":                   "5e62212c4f84aef42081a1c65fd999ff11bbaf3e25de502539053194c45208e2", // 40 results
	"TestSpanEquivalenceFusedAggregate/min":                   "cf29a2affe041629662df8b75e3f5063dfb6690c098453d2692e864faf123103", // 40 results
	"TestSpanEquivalenceFusedAggregate/max":                   "7b5620e037d83103ee589bd60ad3dd9564fad44064994c00ea3ec2b124835f53", // 40 results
	"TestSpanEquivalenceFusedRepeatedSlides/count/int":        "df7134889ea3e11110822e756954cb2d618112f0d88d3e4c767a22344e88b5fb", // 60 results
	"TestSpanEquivalenceFusedRepeatedSlides/count/float":      "5cd2f3e21df2999f1f27c48aa35220a7fe92d812fc86e4bef0f86788eb6d5577", // 54 results
	"TestSpanEquivalenceFusedRepeatedSlides/count/zeros_ge":   "b80d5c66e5a49a915abb36f1bd34e7ca887f65a8713af46004c2b21e8db543bb", // 56 results
	"TestSpanEquivalenceFusedRepeatedSlides/count/zeros_le":   "cf662617ddd77954b06feeb1db11ae73d2b5f83e1c826c3ad67133a60af616a7", // 59 results
	"TestSpanEquivalenceFusedRepeatedSlides/sum/int":          "103d0368dbbe55ff6343f7eebb9570171cfa6e3a5b606929e1b30a1ef89e7b9f", // 60 results
	"TestSpanEquivalenceFusedRepeatedSlides/sum/float":        "49c0f107632103b2297f683e405508a36fe6dc1968855e0934a3a699f913ac1e", // 54 results
	"TestSpanEquivalenceFusedRepeatedSlides/sum/zeros_ge":     "416e47d8b25dcbb82156c3fd98187c0180ebb751ebfc4db5c836944598d8879a", // 56 results
	"TestSpanEquivalenceFusedRepeatedSlides/sum/zeros_le":     "5aad74fe3c4afd522dad962e4903b25946d0445fca29049f877a7d950e297778", // 59 results
	"TestSpanEquivalenceFusedRepeatedSlides/avg/int":          "5ef39877597ae43bd069914ef59107e0e44426ab2ebe53345e374d31dc053f16", // 60 results
	"TestSpanEquivalenceFusedRepeatedSlides/avg/float":        "1afc62109e359e504450a4c12d4eadc503c8c624fecabe30275a7dd606c368e5", // 54 results
	"TestSpanEquivalenceFusedRepeatedSlides/avg/zeros_ge":     "416e47d8b25dcbb82156c3fd98187c0180ebb751ebfc4db5c836944598d8879a", // 56 results
	"TestSpanEquivalenceFusedRepeatedSlides/avg/zeros_le":     "5aad74fe3c4afd522dad962e4903b25946d0445fca29049f877a7d950e297778", // 59 results
	"TestSpanEquivalenceFusedRepeatedSlides/min/int":          "3e4197b207fd7e5fe503bb11f5f3016d90453d50d8f7686e849b3516d2d79fa5", // 60 results
	"TestSpanEquivalenceFusedRepeatedSlides/min/float":        "9869e6f7f64f22a95ecaa97819db224c15e69bc320806b55f39d216244d6e802", // 54 results
	"TestSpanEquivalenceFusedRepeatedSlides/min/zeros_ge":     "e0dd453bd8ec640f518e7f9284887fd747e9f4122d8d46a08bb78f88efc1e8d6", // 56 results
	"TestSpanEquivalenceFusedRepeatedSlides/min/zeros_le":     "c4b1155d899a6ab4c110ef851f5798c63536e758874466d4b636590e3ae778f5", // 59 results
	"TestSpanEquivalenceFusedRepeatedSlides/max/int":          "49f2f8f570bce102d08588736b1f37fd7d29aa035cb4d90a894936ac5834a817", // 60 results
	"TestSpanEquivalenceFusedRepeatedSlides/max/float":        "4d147c849d660006045d2efbc2d0042ed47960ee1496c1f54c234bb826264981", // 54 results
	"TestSpanEquivalenceFusedRepeatedSlides/max/zeros_ge":     "be760f0396599d156aa10a59ae8cc8a30aa833c7a4f7d2f59423917709747811", // 56 results
	"TestSpanEquivalenceFusedRepeatedSlides/max/zeros_le":     "ddf4bc0b96e204577f9593351e122ba68bf8196bdf38a776f42bdb1a8d5b91ac", // 59 results
	"TestSpanEquivalenceFusedFloatColumn/sum/finite_down":     "ac292bc53fb37b4c26bb1b7c4f459f21bfd70f7550db501a4dfaf87624e83151", // 41 results
	"TestSpanEquivalenceFusedFloatColumn/sum/finite_up":       "53e67853645d857a71e0f3b700df39069048dae35ff4a5a00fe57183c202ce14", // 42 results
	"TestSpanEquivalenceFusedFloatColumn/sum/specials_down":   "cdc92597ce73d7333f6580d8689cb5402f067630df180e31340e18d8b90f6c69", // 42 results
	"TestSpanEquivalenceFusedFloatColumn/sum/specials_up":     "85fda1da9ae8d2b5d55aa99b932b605551a70c11f11cdd829808a2313369d815", // 42 results
	"TestSpanEquivalenceFusedFloatColumn/avg/finite_down":     "b308d6a2fe8377e15f4d1d5c50aab153d460b0e3232d332d41dc2423c3595ec3", // 41 results
	"TestSpanEquivalenceFusedFloatColumn/avg/finite_up":       "3b1b598345b2cb4b6bb486ada37cd374382abdd5ecc89c39c6d28cd387225ff3", // 42 results
	"TestSpanEquivalenceFusedFloatColumn/avg/specials_down":   "8d4946a554e249453e170970b156c6634e61013f89e834ee9240dcaf23ee349b", // 42 results
	"TestSpanEquivalenceFusedFloatColumn/avg/specials_up":     "36ea9a1cf57a90259e1d43fe8a3f8f18a78922850cbe01569d2e0afbfb5cb60d", // 42 results
	"TestSpanEquivalenceFusedFloatColumn/min/finite_down":     "390d75f36cd1f1a13cac982fa5e5855aeb414bb964a483f597cf25ecdb99a301", // 41 results
	"TestSpanEquivalenceFusedFloatColumn/min/finite_up":       "84d05a67357151fbb0f2bd71eec421ee641e4533eb3d51a4686f794266ef2908", // 42 results
	"TestSpanEquivalenceFusedFloatColumn/min/specials_down":   "b956b2d09578f08419f2c8481368d6d97b240178e25fec9170f7b29e58ee90d1", // 42 results
	"TestSpanEquivalenceFusedFloatColumn/min/specials_up":     "281a6ce1a60002da4563f6994af7e5b26ea793873f3c6d13a472ba6489059b11", // 42 results
	"TestSpanEquivalenceFusedFloatColumn/max/finite_down":     "a3c5c70a079849f5180e8995c0e641e3ab3cad961c1dfac04c5d802ea29a6edf", // 41 results
	"TestSpanEquivalenceFusedFloatColumn/max/finite_up":       "18ead4c0baccfa30841d56467befd18f219ca1234efd817c201ffa45b3fe4365", // 42 results
	"TestSpanEquivalenceFusedFloatColumn/max/specials_down":   "b957ec3be9f73bb6a623c60cdcc0f0d0c8c8db46f43935defd875c23ddb0bca0", // 42 results
	"TestSpanEquivalenceFusedFloatColumn/max/specials_up":     "56b629ab5fcee4beaa335616779bf1168059ca5124c1d1dddd29d2f6e09e3484", // 42 results
	"TestSpanEquivalenceFusedFloatColumn/count/finite_down":   "e203f9282a599e3da23962af507c9f5619b5f141cf0dd9e994f4965c5558f667", // 41 results
	"TestSpanEquivalenceFusedFloatColumn/count/finite_up":     "0e1cb8bb38fc8d85ad448003f3ce48cbe141e3cb730175a6e5a519654dccf2b5", // 42 results
	"TestSpanEquivalenceFusedFloatColumn/count/specials_down": "36cd88f2ac3680fc9fded6481d22286af5d7b9efbccf82621b159e09e2277356", // 42 results
	"TestSpanEquivalenceFusedFloatColumn/count/specials_up":   "64812dafada5b369c202c2f8bd62a0496017efac8b7f19d04154e73e802c7696", // 42 results
	"TestSpanEquivalenceFusedSelective/lt_0":                  "37f7530f8a6b912ebb51e92fe9d953d037f71c910278a485fcd014edc72953c5", // 0 results
	"TestSpanEquivalenceFusedSelective/lt_5":                  "08d5abe7e7ee80ce8bf56978dbb9d3182dc3817f5b7445d5cf0356d23ce2502c", // 30 results
	"TestSpanEquivalenceFusedSelective/lt_1000":               "26c1650f35ffcd4927911caf3ababbea8b12b9f7abf779f102b7f4e283392e64", // 32 results
	"TestSpanEquivalenceFusedMultiConjunct/int":               "3456e85f892912d30fb8133482ed61c1b60db14d45ed0a97c5af290f7b197442", // 36 results
	"TestSpanEquivalenceFusedMultiConjunct/float":             "5fc1b545aebcafee9feeeee5db966c90b18fb8c7e527ba66e3d9acd66087eedc", // 37 results
	"TestSpanEquivalenceValueOrderFiltered":                   "51f7ac3fe3368eb229692725d70e464d2c2b9691d347d7abaa97470e2c9bca55", // 11 results
}
