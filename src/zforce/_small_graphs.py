"""Graph6 tables behind the reproduce suite's exhaustive panels.

Data only.  Each constant holds whitespace-separated graph6 strings, read
with `str.split()` and `graph.parse_graph6`; raw strings, because graph6
bytes include a backslash.  Recorded from networkx 3.x:

- CONNECTED_ATLAS: the 996 connected graphs of `graph_atlas_g()` (orders
  1..7, every isomorphism class once), in atlas order.
- TREES: the 199 graphs of `nonisomorphic_trees(n)` for n = 3..10, in
  generation order.

tests/test_reproduce.py::test_tables_match_networkx re-derives both.
"""

CONNECTED_ATLAS = r"""
@ A_ Bo Bw CF Ck CN Cl C| C~ D?{ DBc Dh_ D@{ Dx_ DJc DbW Dhc DjW Db[ D`{ Dlc
D]o DJ{ DF{ Djs D]w Df{ Dl{ Dn{ D~{ E?Bw EhP? EsCO EiGO EBe? E`EG E?Fw EC{O
E@dW EG}? E]a? EYWO E]_O EQKo EsCW EJe? EBy? Ehd? EhEG EB{G EhX_ E^_O EJwG E`Xg
EtaG Eht? EtoO EB}? EXSg Eld? EJy? Exd? EYOw ERUO EZEG ElEG EheO E{CW E~a? E~_O
EzW_ Ejt? EjsG Ez`_ Eju? Ev`_ EXSw E~AG Er`o EB}G Exe_ E?~o EhMg EyUG Ele_ EJyG
EhdW EhNG Ehf_ EhUg E~H_ E~`_ El{G EZSw E~@g E?~w E|e_ EyuG EyVG E~aG ElfO E^eG
E^MG Exf_ EO~o Ehew Elf_ ElMg EtTg ElUg En{G En}? E_~w EjtW E^mG E^Mg EjvG Elfo
Exv_ ErXw Ehfw EzNG E^NG EyUw E~|? E~Xo En}G E~wW EyVw ER~g E}^G Ep~o El^g E~{W
E~z_ Ep~w E~^G EznW E~~G E~nW Ez~w E~~w F??Fw FhG`? FiO`? FiOG_ FiO_G FIo`?
Fk_`? FaOH_ FEW`? Fk_G_ FhCK? FsaC_ FItA? F?Bcw FkoK? FhG`G FMpA? FhoI? FhoGO
FHAgg FiG`G FbW`? FiO`G FMoG_ Fg?hg Fko`? Fpq?_ FMoa? Fpq?G Fpa?g FhoG_ FhD@G
FhoGG FIo`G Fh_gG FpQO_ FXAGg Fk_`G FMo`? FK_h_ FIc`G FMo@G FPq?g FhCKG FmpA?
FupA? FexA? FMtA? F\CoG FE|A? F[EoG FjKGO F`?Fw FH?NW Fh?Dw Fepa? Flg`? FXAgg
FhDb? FmW`? FFwG_ FxUA? FeoJ? Fewa? FxSI? FxSQ? FEtB? FxaGG FFwH? Fhoh? Fmo`?
Fh?JW Fpa_g FFw`? FjCHO F`DbG FhogG FMs`? FFwc? FLg`G FwaK_ FxOY? FxSAG FhFE?
FK{@G FsNA? F_{p? FhT@G FhDIO F_{Og FSYK_ FFwGG Fgogg FxOWO FHt@G FHFEG F_sPg
FhFK? FhMK? FxU?G FHhGg FLJK? FFw_G F_{PG F`EBW Fh_gg FhEJ? FMo`G FhEIG FhEK_
F`ooo F~aC? F~a@? F~_Q? FzW`? FzWa? FjtA? Fjt?O Fz`a? FjsGO FjsG_ Fz`c? FjuA?
FXSx? Fv`c? F~a?G Fju?O FjsH? FXSwG F~_?g FjuC? FlkG_ Fz`_G FXSwO Fju@? Fv`_G
Fv@h? Fr`s? F~AGG FB}GO Fxec? FB}G_ FzW_G F?~oO FhMh? FjsAG FB}H? FB}K? FyQAg
Flec? FJyGO FjsGG FhMgO FhMgG FyaAg Fxea? Fxe_O FJyH? Fle__ Fle`? Fz@cO F?~q?
Fju?G FhMi? FhMk? FhMg_ FyIAg FhdW_ Flea? FhNGO Fv@cO Fhfa? FJyK? FHS|? Fhfc?
FhdWG Fle_O FyAIg FhUgG FhdY? FJyG_ F~AGO Fhd[? Fhf_O FhNK? Fr@sO FhUk? FGEFw
FxS`G FB{KG FByGo FXQgg FBqgW FxCX_ FXJGg FjSKG FhdM? Fht@G FxSOg FxaGg FhdU?
Fp`gg FhYGo Fmo`G FBZEG Fpq_g FFw`G FpUK_ FhEM_ FlO[O Fhogg FgqPg FMs`G FhEMG
FlgGg FhMIG FhcYG FhELO F~H`? F~Ha? F~`a? F~`c? F~`__ Fl{GO FZSw_ F~@h? FZSx?
FxqgG F~`_G FZSwO F~@gG F?~wG F|ec? F|e`? F?~y? F|e__ FyuK? FyVI? F~aK? FlfO_
F|e_G F^eG_ FyVK? FPzp? F~@`O Fxf`? FyVGG F|e_O F^MG_ F~aH? FO~oG F^eH? FPzs?
FlfQ? F^MGO F~@cO Fxf_G FyuGG FO~s? FyVH? FlMh? FhewG Flfc? F~aGG Fl{?W F^eI?
FlfOO FhewO FlfP? Fhe{? FlMgG Flfa? Fxf__ FJS|? FhDjO FlMk? Flf__ Flf`? F~@_W
F^MI? F^MGG FO~q? Fhey? FlMi? Flf_O FtTgO FlUk? FjrE? FXJgg F]rE? FGENw F`EFw
FxUb? FxUd? FGeJw FxKiO Fmqd? FXJHg FxVD? FxeHO FF{`G FzSIG FHENW F`EVW FhayG
F]mCG F]uCG F`MFW FMpbG Fowt_ FOx{_ FLsYG Fgkx_ FxSIW FhFIg Fpq`g FhdYG Fh]IG
FxSqO FxckG FsdoW FhNHG FF}@G FhcWw FHVf? FhNHO FdZKO FMowo Fhf_g Fhowg FhMJG
FheoW FheL_ FhEKw FhFMO FxEKW FhEMg FXVEG FhdQW FhUkG FMjDO FhEJW F]MIO F`NBW
Ffw`G Fms`G FMohg FhMMG FlBHo FhUk_ Fn{GO Fn{OO Fn{_O Fn{`? Fn{c? F_~wO FjtY?
FjtWO F_~y? F^mH? FjtWG F^Mh? FjvI? F^Mg_ FjvGO F@`zw Flfs? F^Mk? Fxva? FjvGG
Fjt[? FrXx? FjvG_ Fxv`? F^MgG FlfoG FrXwG Fn{GG Flfq? Fxv_O Fxv_G FrXwO F^mI?
Fn{@G FhfwG FzNI? Fhfy? FjvH? F^Mi? F?\vg FyUy? FzNGG FzNG_ FlfoO Fxv__ F^NI?
FyUx? FrX{? F?\~_ F?B~w FzTb? FjtQO FF[Kw FxMhO F|eK_ Fz[`G FXYwg FhmhO Fxef?
F@FnW F?F~o FGM]w FxkkG FxkKW Fp\j? FhNhO FxeLO FjsYG FN{`G F@U}o Fhxgg FF|b?
F`ENw FmpbG Fl{GW Fxecg FxeKo FxecW FleL_ FhA{w FzKWg Ff[sO FrD{_ FVrEG Fh]Ho
FhFWw Fhhwg Fl|?W Fnw`G FcBzo FxT`o FxJ_w FhtOw FheTg FhFIw FhNJG FlkqO FhFJW
FKL\W FpNDW Fhctg FFx]? FBUlW F}?^O Fxqgg FpTz? F?]~_ FxeHo F}oXO Fhff? Fm{`G
FheyG Fhqwg FllGW Fhbwo FMtbG FNohg Flg[g FsW|_ Fhe}? FKhZg FhuoW F`~PG FMshg
FfxcG FDpjg FllIG Fhqhg FlkYG FhsZG FhNHo FlUj? FK`zo FlhWo FBjN_ FLNMO Frq_w
F{cZG F~|A? F~{OO F~Xq? F~Xo_ Fn}GO Fn}I? F~Xs? Fn}K? Fn}H? F~wY? F~wWO F~{AG
FyVy? FlNwG F}RBg FlNw_ F~XoO FyVx? F}bBg FR~g_ FR~k? Fn}GG Fl^gG Fp~oO Fp~s?
F}BJg Fp~o_ Fl^k? F~wWG FFC^w Fh|JO FD^Ww F~MQ_ F~ZC_ FhxxG Ff{Wg FnzE? F~gj?
Fl{go FnzB? F~ghO F{e[o F~q`G Fl}SO FlzM? Fnye? FlkXo FD^[g Fl~E? Fn|?W FnwWo
Flu]? Fnz@O FlxiG F}lQO F|sk_ Fxr`g FnwpO Fw\x_ F}{Gg F~CRW Fn}CG Fl|c_ FhdYw
FBY|o FhffG F`FNw FhfyG Fl|GW FwVy_ FB`~W F@Vng F{XrO FllWo FyUyG Fl|EG FfxbO
FlZZ? FlZYO FlZ]? FllHo FBj]g FKNJw FDXmw Fhc^o FvXqO FyUy_ FL~@o FFj]_ FC^bw
FLrFo FBY^W FKYZw FC\vW F?^vo Fl]Z? Fl]YG FPT}o FB]mg Fl]oW FXT[w FQ\sw FQT|o
FB]^G FHN]o FDh}o FJY[w FpLYw FFhuo FBjew FF|cg FFxso FJa^W FFhmo FL~Cg FKN^O
FLUmW FLNMW Ffwhg Floxo FBfnO FEl~? F`urg FreRW FhENw FK|ko F@\|w F~{WO F}~I?
Ftilg F@\}w FC\zw Fse|o F@\~g FBX|w Fp~y? F~{WG FB^bw FBX~o FgB~w F~zD? Fn{[_
Fn}S_ Fn}SO FA]|w F~ySO F~|AG FBh|w F@]~g FBY|w F~{OW F@N~o FyVyG Fl}Ko FyVz?
F~zCG FnZf? FN{hg FC\~W FNxYo F}ys_ F~ySG F~qk_ F}mu? FPT}w FNlj_ F@t~g FyuyO
FtviG F~eqO F|VhG FFvHw FQT|w Fp~oW Fyu{O FfzM_ FHN]w FyVwo F}th_ F|bJW F@^vo
FBY~o F~yOW FI]tw F^nKG Ftvh_ Fljwo F`\tw F`L~o Fhe|o Fxc{w Fnkpg Fhfww FnTNG
F}qtO FN^Sg Fls{o Fh`}w F@vng FBfnW FxNgw FgF~o FreVW FHf^o F^TmO FltjG F@vvo
FFh}o FHvTw FBnew FXU]w FhNvO FYU\w Ffw}_ F\VMo FJe~O FIm~_ Floxw Fb]lg FbY|o
FzeRW F~~I? FB\|w Fsmtw FB\~W FK\zw F~{Wo F~~B? F~{sO F}~KO F}vUO Fse~W Fsq|w
Fyv{O Fyvz? Fse~o FFn]o F~{WW FztxG FD\~W FK\|w F@^~o F`\|w FI]|w F~z_o FlnyG
FJd~W FBx~g FB^ng F~v_W F^vm? FgF~w Fsfng FreVw FEynw FnzM_ FC|vw FtrLw Fbk}w
FBn^W FHn]w FFx{w FEyvw Feg~w F{e}o Ftj]o FFy}g Ffk}W FBnng FLp|w FIm~g F`]~g
Fbh|w FFy}o FbY|w FJq|w F@~vg Ffw}o FBzvo FJfno FJnVW FLvbw FFzbw FzM]W FFzn_
Fz~y? Fz~{? F}vUg Fsn]w Fdn]w FF~]o Fl~yG FeN^w Fbn]w FR\}w FFz]w FF~ww FF|{w
F~nR_ Fv|Xo F~{Ww Flknw Fek~w FEznw F~ENw FC~vw FJm}w FFy}w Ff}ew Fsnvo Few~w
Fe]vw Ff]mw FU\~W FBz~o FF~ew Ffw}w FJn^W Fs\zw FtTnw Fs\vw FLvng FF~n_ Ff~`w
Fhf~o F~~x? FEv~w Ftm}w FJ^~o FF~{w FEn~w Ftn]w FEz~w FeN~w Fe]~w Fum~W FE~vw
Ffy}w Ff~ew F}vn_ Ftvng Fs~vg F`~vw Ffx|w Ff~dw FFz~o F~~z? F~znO Fen~w Fe~vw
Ff~xw Fd^~w FFz~w Fd~vw Ffznw FNz~o F~~}G F~~v_ F|~lw F~^]w Fvx~w F~~]w F~^nw
F~^~w F~~~w
"""

TREES = r"""
Bo Ck Cs DkC Dk_ Ds_ Eh_G Ei_G Eia? EkE? Eka? Esa? Fh_GG Fh_GO Fh_K? FiQ?G
Fi_GO Fi_K? FiaC? FkE?G FkEC? FkaC? FsaC? GhE?GC GhI?GC GhI?GG GhQ?GC GhQ?GG
GhQ?K? Gh_GK? Gh_GOO Gh_GS? Gh_K?C Gh_KC? GiPC?C GiQ?GG GiQ?K? GiQCC? Gi_GS?
Gi_K?C Gi_KC? GiaCC? GkE?K? GkECC? GkaCC? GsaCC? HhE?GC@ HhE?GCA HhE?GCC
HhE?GE? HhGc?C@ HhHC?C@ HhI?GCA HhI?GCC HhI?GE? HhI?GGC HhI?GI? HhI?K?@ HhI?KA?
HhOK?C@ HhPC?C@ HhQ?GCC HhQ?GE? HhQ?GGC HhQ?GI? HhQ?K?@ HhQ?KA? Hh_GK?@ Hh_GKA?
Hh_GOOG Hh_GOQ? Hh_GS?@ Hh_GSA? Hh_K?E? Hh_KCA? HiPAC?@ HiPC?CA HiPC?E? HiQ?GGC
HiQ?GI? HiQ?K?@ HiQ?KA? HiQCCA? Hi_GS?@ Hi_GSA? Hi_K?E? Hi_KCA? HiaCCA? HkE?K?@
HkE?KA? HkECCA? HkaCCA? HsaCCA? IhCK?C@?G IhCS?C@?G IhCS?C@?O IhCc?C@?G
IhCc?C@?O IhCc?C@?_ IhDC?C@?G IhDC?C@?O IhDC?C@?_ IhDC?C@_? IhE?GC@_? IhE?GCA?_
IhE?GCA@? IhE?GCA_? IhE?GCC?G IhE?GCC@? IhE?GCC_? IhE?GE??G IhE?GE?_? IhG`C?@?G
IhGaC?@?G IhGc?C@?O IhGc?C@?_ IhGc?C@_? IhGc?CA?_ IhH?K?@?G IhHAC?@?G IhHC?C@?O
IhHC?C@?_ IhHC?C@_? IhHC?CA?_ IhHC?CA_? IhI?GCA_? IhI?GCC?G IhI?GCC@? IhI?GCC_?
IhI?GE??G IhI?GE?_? IhI?GGC@? IhI?GGC_? IhI?GI??G IhI?GI?_? IhI?K?@_? IhI?KA?_?
IhOIC?@?G IhOK?C@?_ IhOK?C@_? IhOK?CA?_ IhOK?CA_? IhOK?E??G IhPAC?@?G IhPC?C@?_
IhPC?C@_? IhPC?CA?_ IhPC?CA_? IhPC?E??G IhPC?E?_? IhQ?GCC_? IhQ?GE??G IhQ?GE?_?
IhQ?GGC@? IhQ?GGC_? IhQ?GI??G IhQ?GI?_? IhQ?K?@_? IhQ?KA?_? Ih_GK?@?G Ih_GK?@?O
Ih_GK?@_? Ih_GKA?_? Ih_GOOGA? Ih_GOOG_? Ih_GOQ??G Ih_GOQ?_? Ih_GS?@?O Ih_GS?@_?
Ih_GSA?_? Ih_K?E??G Ih_K?E?_? Ih_KCA?_? IiPAAA??G IiPAC?@?O IiPAC?@_? IiPC?CA?_
IiPC?CA_? IiPC?E??G IiPC?E?_? IiPCCA?_? IiQ?GGC_? IiQ?GI??G IiQ?GI?_? IiQ?K?@_?
IiQ?KA?_? IiQCCA?_? Ii_GS?@?O Ii_GS?@_? Ii_GSA?_? Ii_K?E??G Ii_K?E?_? Ii_KCA?_?
IiaCCA?_? IkE?K?@_? IkE?KA?_? IkECCA?_? IkaCCA?_? IsaCCA?_?
"""
